package bench

import (
	"fmt"
	"sort"
	"strings"

	"csaw/internal/loc"
)

// Table2 regenerates the paper's effort comparison: lines of code needed to
// support each architecture-level feature through the DSL (the reusable
// architecture expression plus the per-application junction wiring) versus
// writing the re-architecture directly in the host language with its own
// communication and synchronization plumbing.
func Table2(cfg Config) (Result, error) {
	root, err := loc.ModuleRoot("")
	if err != nil {
		return Result{}, err
	}
	rows, err := loc.Table2(root)
	if err != nil {
		return Result{}, err
	}
	t := Table{Header: []string{"Feature", "DSL (pattern)", "Redis glue", "DSL total", "Direct Go", "saving"}}
	for _, r := range rows {
		total := r.DSL + r.RedisGlue
		saving := fmt.Sprintf("%.1fx", float64(r.DirectGo)/float64(total))
		t.Rows = append(t.Rows, []string{
			r.Feature,
			fmt.Sprintf("%d", r.DSL),
			fmt.Sprintf("%d", r.RedisGlue),
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%d", r.DirectGo),
			saving,
		})
	}
	return Result{
		ID:      "Table2",
		Caption: "Effort (LoC) to support software extensions: DSL vs direct implementation",
		Tables:  []Table{t},
		Notes: []string{
			"DSL patterns are reused across applications (the Suricata and cURL wiring reuse the same pattern files), amortizing the first column",
			"Direct Go re-grows per-feature communication/synchronization plumbing (direct.go), mirroring the paper's +195-line observation",
		},
	}, nil
}

// Experiment is one regenerable artefact.
type Experiment struct {
	ID  string
	Run func(Config) (Result, error)
}

// All returns every experiment of the evaluation, in the paper's order.
func All() []Experiment {
	return []Experiment{
		{"Fig23a", Fig23a},
		{"Fig23b", Fig23b},
		{"Fig23c", Fig23c},
		{"Fig24a", Fig24a},
		{"Fig24b", Fig24b},
		{"Fig24c", Fig24c},
		{"Fig25ab", Fig25ab},
		{"Fig25c", Fig25c},
		{"Fig26a", Fig26a},
		{"Fig26b", Fig26b},
		{"Fig26c", Fig26c},
		{"Table2", Table2},
		{"Suricata-sharding-overhead", SuricataShardingOverhead},
		{"Transport-recovery", TransportRecovery},
		{"Net-batching", NetBatching},
		{"Cost-validation", CostValidation},
		{"Migration", Migration},
	}
}

// Select resolves a comma-separated list of experiment IDs, as csaw-bench's
// -run flag takes it, to experiments in All's order; a list naming no ID
// selects every experiment. An unknown ID is an error listing the valid
// ones, so a renamed experiment cannot silently turn a run into a no-op.
func Select(ids string) ([]Experiment, error) {
	all := All()
	want := map[string]bool{}
	for _, id := range strings.Split(ids, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	if len(want) == 0 {
		return all, nil
	}
	var out []Experiment
	valid := make([]string, 0, len(all))
	for _, e := range all {
		valid = append(valid, e.ID)
		if want[e.ID] {
			out = append(out, e)
			delete(want, e.ID)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment ID(s) %s; valid IDs: %s",
			strings.Join(unknown, ", "), strings.Join(valid, ", "))
	}
	return out, nil
}

package patterns

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"csaw/internal/obsv"
	"csaw/internal/runtime"
)

// TestBatchingEquivalence is the semantic gate for the pipelined remote-
// update plane (per-pair ack windows, cumulative acks, batch KV
// application): every catalogue architecture, driven deterministically, must
// reach the quiescent KV state and the set of failing junctions recorded in
// testdata/quiescent/<entry>.txt, in both execution modes. The files are
// frozen output of the retired one-round-trip-per-update plane, on which all
// four {compiled, interpreted} x {batched, unbatched} modes agreed, so they
// stand in for that plane as the oracle. Run under -race in CI.
func TestBatchingEquivalence(t *testing.T) {
	run := func(t *testing.T, entry CatalogueEntry, interpreted bool) string {
		t.Helper()
		sys := startSystem(t, entry.Build(), runtime.Options{
			DisableCompiledPlan: interpreted,
			Trace:               obsv.NewRingSink(8192),
		})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := sys.RunMain(ctx); err != nil {
			t.Fatal(err)
		}
		driveEntry(ctx, t, entry.Name, sys)
		state := quiesce(t, sys)
		var b strings.Builder
		b.WriteString(state)
		b.WriteString("drivers:")
		for _, fq := range driverErrorJunctions(sys) {
			b.WriteString(" " + fq)
		}
		b.WriteString("\n")
		return b.String()
	}
	for _, entry := range Catalogue() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "quiescent", entry.Name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []struct {
				name        string
				interpreted bool
			}{
				{"compiled/batched", false},
				{"interpreted/batched", true},
			} {
				if got := run(t, entry, v.interpreted); got != string(want) {
					t.Errorf("%s: quiescent fingerprint diverges from the recorded one:\n--- recorded ---\n%s--- %s ---\n%s",
						v.name, want, v.name, got)
				}
			}
		})
	}
}

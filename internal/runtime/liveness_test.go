package runtime

import (
	"context"
	"testing"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// TestConsistentLivenessRetriesAcrossStart pins the guard-evaluation view
// of liveness: an evaluation that an instance start overlaps is discarded
// and repeated, so a guard like ¬S(a) ∧ S(b) never holds on a read of a
// taken before a's start combined with reads taken after it.
func TestConsistentLivenessRetriesAcrossStart(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("T").Junction("j", dsl.Def(nil, dsl.Skip{}))
	p.Instance("a", "T").Instance("b", "T")
	p.SetMain(dsl.Start{Instance: "b"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	evals := 0
	got := s.consistentLiveness(func() formula.Truth {
		evals++
		aDown := !s.InstanceRunning("a")
		if evals == 1 {
			// a starts between this evaluation's reads.
			if err := s.StartInstance("a", nil); err != nil {
				t.Fatal(err)
			}
		}
		return formula.FromBool(aDown && s.InstanceRunning("b"))
	})
	if got != formula.False || evals != 2 {
		t.Fatalf("¬S(a) ∧ S(b) = %v after %d evaluations, want false after 2", got, evals)
	}
}

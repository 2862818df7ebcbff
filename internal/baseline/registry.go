package baseline

import (
	"fmt"

	"repro/internal/core"
)

// AllocatorByName returns a fresh allocator for an algorithm name; it is
// the one allocator registry every CLI and harness builds from. The names
// are Algorithm 1 ("dvgreedy", alias "proposed") on a SolverAllocator that
// keeps its scratch across slots, the same engine through the stateless
// pooled core.DVGreedy entry point ("dvgreedy-scan", kept for differential
// comparison; the name predates the heap solver), the single-criterion
// ablations ("density", "value"), the exhaustive "optimal", the two
// comparison baselines ("firefly", "pavq") and the equal-split "uniform".
// It lives here because this is the one package that sees both core and
// the baselines.
func AllocatorByName(name string) (core.Allocator, error) {
	switch name {
	case "dvgreedy", "proposed":
		return core.NewSolverAllocator(), nil
	case "dvgreedy-scan":
		return core.DVGreedy{}, nil
	case "density":
		return core.DensityOnly{}, nil
	case "value":
		return core.ValueOnly{}, nil
	case "optimal":
		return core.Optimal{}, nil
	case "firefly":
		return NewFirefly(), nil
	case "pavq":
		return NewPAVQ(), nil
	case "uniform":
		return NewUniform(), nil
	default:
		return nil, fmt.Errorf("unknown allocator %q", name)
	}
}

// MustFactory returns a constructor of fresh AllocatorByName(name)
// allocators, for harnesses that build one per run, shard or candidate. It
// panics on an unknown name, so pass only names fixed in code or already
// validated with AllocatorByName.
func MustFactory(name string) func() core.Allocator {
	if _, err := AllocatorByName(name); err != nil {
		panic(err)
	}
	return func() core.Allocator {
		a, _ := AllocatorByName(name)
		return a
	}
}

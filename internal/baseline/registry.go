package baseline

import (
	"fmt"

	"repro/internal/core"
)

// AllocatorByName returns a fresh allocator for a command-line algorithm
// name: Algorithm 1 ("dvgreedy", alias "proposed"), its rescan engine
// ("dvgreedy-scan", kept for differential comparison), the single-criterion
// ablations ("density", "value"), the exhaustive "optimal", and the two
// comparison baselines ("firefly", "pavq"). It lives here because this is
// the one package that sees both core and the baselines.
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
	default:
		return nil, fmt.Errorf("unknown allocator %q", name)
	}
}

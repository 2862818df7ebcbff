package baseline

import "testing"

func TestAllocatorByName(t *testing.T) {
	tests := []struct {
		give string
		want string
	}{
		{"dvgreedy", "dvgreedy"},
		{"proposed", "dvgreedy"},
		{"density", "density"},
		{"value", "value"},
		{"optimal", "optimal"},
		{"firefly", "firefly"},
		{"pavq", "pavq"},
		{"uniform", "uniform"},
		{"dvgreedy-scan", "dvgreedy"},
	}
	for _, tt := range tests {
		alloc, err := AllocatorByName(tt.give)
		if err != nil {
			t.Fatalf("%s: %v", tt.give, err)
		}
		if alloc.Name() != tt.want {
			t.Errorf("AllocatorByName(%q).Name() = %q, want %q", tt.give, alloc.Name(), tt.want)
		}
	}
	if _, err := AllocatorByName("nope"); err == nil {
		t.Error("unknown allocator should error")
	}
}

// TestMustFactory checks the factory hands out a fresh allocator per call
// and refuses unknown names up front.
func TestMustFactory(t *testing.T) {
	newAlloc := MustFactory("firefly")
	a, b := newAlloc(), newAlloc()
	if a.Name() != "firefly" || a == b {
		t.Fatalf("MustFactory(firefly) gave %v and %v, want two fresh Firefly allocators", a, b)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustFactory of an unknown name should panic")
		}
	}()
	MustFactory("nope")
}

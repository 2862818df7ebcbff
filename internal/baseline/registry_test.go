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

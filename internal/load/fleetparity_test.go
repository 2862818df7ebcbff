package load

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/chaos"
)

// TestFleetSimOneShardMatchesSimulate pins the shared slot core: a fleet of
// one shard owns every session, gets the whole budget and never migrates,
// so it must decide and settle exactly what Simulate does — across churn
// and a steady population, with and without a link-blackout profile, and
// whatever the coordinator configuration.
func TestFleetSimOneShardMatchesSimulate(t *testing.T) {
	poisson, err := Generate(Config{
		Shape: Poisson, Seed: 7, HorizonSlots: 600, RatePerSec: 6, MeanHoldSec: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	steady, err := Generate(Config{Shape: Steady, Seed: 11, HorizonSlots: 400, Sessions: 6})
	if err != nil {
		t.Fatal(err)
	}
	blackout := &chaos.Profile{
		Name: "test-blackout", Seed: 42,
		Faults: []chaos.Fault{{Kind: chaos.FaultBlackout, StartSlot: 150, DurationSlots: 60}},
	}
	for _, wc := range []struct {
		name string
		w    *Workload
	}{{"poisson", poisson}, {"steady", steady}} {
		for _, prof := range []*chaos.Profile{nil, blackout} {
			sim := SimConfig{BudgetMbps: 300, Chaos: prof, Workers: 1}
			want, err := Simulate(wc.w, sim)
			if err != nil {
				t.Fatal(err)
			}
			for _, coords := range []int{-1, 1, 3} {
				name := fmt.Sprintf("%s/chaos=%v/coords=%d", wc.name, prof != nil, coords)
				t.Run(name, func(t *testing.T) {
					got, err := SimulateFleet(wc.w, FleetSimConfig{Sim: sim, Shards: 1, Coordinators: coords})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
						t.Error("Outcomes differ from Simulate")
					}
					if !reflect.DeepEqual(got.SlotQuality, want.SlotQuality) {
						t.Error("SlotQuality differs from Simulate")
					}
					if got.Completed != want.Completed || got.Failed != want.Failed {
						t.Errorf("completed/failed %d/%d, Simulate %d/%d",
							got.Completed, got.Failed, want.Completed, want.Failed)
					}
				})
			}
		}
	}
}

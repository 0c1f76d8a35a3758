package muppet_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"muppet"
	"muppet/internal/slate"
)

// Both Muppet versions are one runtime with a dispatch strategy each.
// These tests pin what that buys: one API on both engine types, and
// behaviour that used to drift between the two copies.

var engineVersions = []struct {
	name    string
	version muppet.EngineVersion
}{{"engine1", muppet.EngineV1}, {"engine2", muppet.EngineV2}}

// strategyOnly lists the exported methods one engine type may have and
// the other not: each is the paper's difference showing through, not a
// runtime feature landed on one side.
var strategyOnly = map[string]string{
	"CacheStats": "1.0: per-updater breakdown of its disparate caches",
	"MachineFor": "2.0: keys are owned by machines",
}

// TestEngineMethodSetParity reflects over the concrete types NewEngine
// returns: a method added to one strategy instead of the runtime fails
// here rather than drifting.
func TestEngineMethodSetParity(t *testing.T) {
	sets := map[string]map[string]bool{}
	engs := map[string]muppet.Engine{}
	for _, v := range engineVersions {
		eng, err := muppet.NewEngine(netCounterApp(), muppet.Config{Engine: v.version})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Stop()
		engs[v.name] = eng
		typ := reflect.TypeOf(eng)
		sets[v.name] = map[string]bool{}
		for i := 0; i < typ.NumMethod(); i++ {
			sets[v.name][typ.Method(i).Name] = true
		}
	}
	var drift []string
	for _, pair := range [][2]string{{"engine1", "engine2"}, {"engine2", "engine1"}} {
		for m := range sets[pair[0]] {
			if !sets[pair[1]][m] && strategyOnly[m] == "" {
				drift = append(drift, pair[0]+" has "+m+", "+pair[1]+" does not")
			}
		}
	}
	for m := range strategyOnly {
		if sets["engine1"][m] == sets["engine2"][m] {
			drift = append(drift, m+" is listed in strategyOnly but is not one strategy's alone")
		}
	}
	sort.Strings(drift)
	if len(drift) > 0 {
		t.Fatalf("engine method sets drifted (move the method into internal/runtime, or list it in strategyOnly):\n%s",
			strings.Join(drift, "\n"))
	}
	// The engine-wide cache aggregate is read from the registry
	// (muppet_slate_*); the CacheStats name belongs to 1.0's per-updater
	// breakdown alone.
	if _, ok := engs["engine1"].(interface {
		CacheStats(updater string) slate.CacheStats
	}); !ok {
		t.Error("engine1 lost its per-updater CacheStats(updater)")
	}
}

// TestNodeAnswersOnlyForHostedMachines: on a 3-node TCP cluster each
// node reports queue depth for the one machine it hosts — 1.0 used to
// fabricate zero samples for the two it does not.
func TestNodeAnswersOnlyForHostedMachines(t *testing.T) {
	for _, v := range engineVersions {
		t.Run(v.name, func(t *testing.T) {
			members := []string{"machine-00", "machine-01", "machine-02"}
			for name, eng := range startNetNodes(t, v.version, netCounterApp, members) {
				if got := eng.LargestQueues(); len(got) != 1 || got[name] != 0 {
					t.Errorf("%s: LargestQueues() = %v, want only %s", name, got, name)
				}
				var samples []string
				for _, e := range eng.Metrics().SnapshotJSON() {
					if e.Name == "muppet_queue_depth" {
						samples = append(samples, e.Labels["machine"])
					}
				}
				if len(samples) != 1 || samples[0] != name {
					t.Errorf("%s: muppet_queue_depth samples for %v, want only %s", name, samples, name)
				}
			}
		})
	}
}

// TestCrashUnknownMachineIsNoOp: only 2.0 used to guard the name.
func TestCrashUnknownMachineIsNoOp(t *testing.T) {
	for _, v := range engineVersions {
		t.Run(v.name, func(t *testing.T) {
			eng, err := muppet.NewEngine(netCounterApp(), muppet.Config{Engine: v.version, Machines: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()
			if q, d := eng.CrashMachine("machine-99"); q != 0 || d != 0 {
				t.Fatalf("CrashMachine(unknown) = (%d, %d), want (0, 0)", q, d)
			}
			if st := eng.RecoveryStatus(); st.Failovers != 0 || st.QueuedLost != 0 {
				t.Fatalf("crashing an unknown machine left a trace: %+v", st)
			}
		})
	}
}

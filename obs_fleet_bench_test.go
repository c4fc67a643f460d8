package arthas_test

// Benchmarks for the enabled cost of observability on the serving path: one
// fleet shard's stack (arthas.Instance on the fleet KV program, provenance
// on) serving gets over 64-node chains and upserts of existing keys, with a
// Recorder as the observer — what fleet.New wires into every shard — and
// with none. The difference between the two legs is what bench/ reports as
// obs.ns_per_get / obs.ns_per_put; docs/OBSERVABILITY.md states the budget.
//
//	go test -run '^$' -bench 'BenchmarkObsFleet' -benchmem .

import (
	"testing"

	"arthas"
	"arthas/internal/fleet"
	"arthas/internal/obs"
)

// obsBenchKeys fills each of the KV program's 64 buckets 64 deep.
const obsBenchKeys = 64 * 64

func benchObsFleet(b *testing.B, op func(inst *arthas.Instance, k int64) *arthas.Trap) {
	legs := []struct {
		name     string
		observer func() obs.Sink
	}{
		{"recorder", func() obs.Sink { return obs.NewRecorder() }},
		{"off", func() obs.Sink { return nil }},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			inst, err := arthas.New("obs-bench", fleet.KVSource, arthas.Config{
				PoolWords: 1 << 20, RecoverFn: "recover_", Provenance: true, Observer: leg.observer(),
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, trap := inst.Call("init_"); trap != nil {
				b.Fatal(trap)
			}
			for k := int64(0); k < obsBenchKeys; k++ {
				if _, trap := inst.Call("put", k, k); trap != nil {
					b.Fatal(trap)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// An odd multiplier walks every key before repeating.
				if trap := op(inst, int64(i)*2654435761%obsBenchKeys); trap != nil {
					b.Fatal(trap)
				}
			}
		})
	}
}

func BenchmarkObsFleetGet(b *testing.B) {
	benchObsFleet(b, func(inst *arthas.Instance, k int64) *arthas.Trap {
		_, trap := inst.Call("get", k)
		return trap
	})
}

func BenchmarkObsFleetPut(b *testing.B) {
	benchObsFleet(b, func(inst *arthas.Instance, k int64) *arthas.Trap {
		_, trap := inst.Call("put", k, k+1)
		return trap
	})
}

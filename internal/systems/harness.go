// Package systems contains the five target PM systems of the paper's
// evaluation — Memcached, Redis, Pelikan, PMEMKV and CCEH — re-implemented
// in PML with the data structures and code paths that host the twelve
// evaluated hard-fault bugs. They deploy on arthas.Instance, the one place
// the toolchain of paper Figure 4 is assembled.
package systems

import (
	"fmt"

	"arthas"
)

// System describes one deployable PML target.
type System struct {
	Name      string
	Source    string
	PoolWords int
	// InitFn creates the persistent layout on a fresh pool.
	InitFn string
	// RecoverFn is the annotated recovery entry point run after restart.
	RecoverFn string
}

// All returns the five systems in paper order.
func All() []*System {
	return []*System{Memcached(), Redis(), Pelikan(), PMEMKV(), CCEH()}
}

// ByName returns the system called name.
func ByName(name string) (*System, error) {
	for _, sys := range All() {
		if sys.Name == name {
			return sys, nil
		}
	}
	return nil, fmt.Errorf("systems: unknown system %q", name)
}

// Deploy boots sys on a fresh pool under cfg — whose Detach selects which
// toolchain layers attach — and runs InitFn. The system supplies the
// program, the pool size and the recovery entry point.
func Deploy(sys *System, cfg arthas.Config) (*arthas.Instance, error) {
	cfg.PoolWords, cfg.RecoverFn = sys.PoolWords, sys.RecoverFn
	inst, err := arthas.New(sys.Name, sys.Source, cfg)
	if err != nil {
		return nil, err
	}
	if sys.InitFn != "" {
		if _, trap := inst.Call(sys.InitFn); trap != nil {
			return nil, fmt.Errorf("%s init: %v", sys.Name, trap)
		}
	}
	return inst, nil
}

// callErr invokes fn and returns its trap, if any, as an error.
func callErr(inst *arthas.Instance, fn string, args ...int64) error {
	if _, trap := inst.Call(fn, args...); trap != nil {
		return trap
	}
	return nil
}

package faults

import "arthas"

// RunDetectionAlternatives drives a case to its failed state and evaluates
// the §6.6 alternatives: do the system's common domain invariants catch the
// bad state, and does a checksum guard? These mechanisms only *detect*;
// fixing the state remains Arthas's job (Table 7's point).
func RunDetectionAlternatives(b Builder, cfg RunConfig) (invariant, checksum bool, err error) {
	cfg = cfg.withDefaults(b.Meta)
	c, err := b.New(arthas.Config{})
	if err != nil {
		return false, false, err
	}
	if trap, _ := runToFailure(c, cfg, nil, nil); trap == nil {
		return false, false, nil
	}
	if c.RunInvariants != nil {
		invariant = c.RunInvariants()
	}
	if c.RunChecksum != nil {
		checksum = c.RunChecksum()
	}
	return invariant, checksum, nil
}

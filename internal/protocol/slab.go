package protocol

// actionSlab carves a core's action lists out of one backing array, so a
// steady-state event allocates no list of its own. A sealed list is never
// written again: a driver may keep it while it calls the core anew.
type actionSlab[A any] struct {
	out []A // unused rest of the slab the next action list is carved from
}

// actions returns an empty action list whose appends fill the slab, a
// fresh one of 64 actions when fewer than 8 are left.
func (s *actionSlab[A]) actions() []A {
	if cap(s.out) < 8 {
		s.out = make([]A, 0, 64)
	}
	return s.out
}

// seal hands a finished action list to the caller, capped so an append
// cannot reach the slab space behind it, which the next list takes.
func (s *actionSlab[A]) seal(acts []A) []A {
	if len(acts) == 0 {
		return nil
	}
	s.out = acts[len(acts):]
	return acts[:len(acts):len(acts)]
}

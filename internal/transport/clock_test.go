package transport

// vclock is modelled time for driving a core by hand: it records the
// deadline of every timer the core arms, so a test can fire each one at
// its exact instant.
type vclock struct {
	now Time
	due map[timerKey]Time // armed deadlines; absent means disarmed
}

type timerKey struct {
	l    Link
	kind TimerKind
}

type vtimer struct {
	c *vclock
	k timerKey
}

func (t vtimer) Arm(at Time) { t.c.due[t.k] = at }
func (t vtimer) Disarm()     { delete(t.c.due, t.k) }

// newVirtualCore returns a core on a fresh vclock at time 0.
func newVirtualCore(cfg Config) (*Core, *vclock) {
	v := &vclock{due: make(map[timerKey]Time)}
	return New(cfg, func(l Link, kind TimerKind) Timer { return vtimer{c: v, k: timerKey{l, kind}} }), v
}

// fire advances the clock to the timer's deadline, when armed and still
// ahead, and fires it there; a fired timer stays disarmed unless the core
// re-arms it.
func (v *vclock) fire(c *Core, l Link, kind TimerKind) (Tx, bool, error) {
	k := timerKey{l, kind}
	if at, ok := v.due[k]; ok && at > v.now {
		v.now = at
	}
	delete(v.due, k)
	return c.Fire(v.now, l, kind)
}

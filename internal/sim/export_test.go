package sim

// WithFixedRing pins the calendar ring to n instants (rounded up to a power
// of two in [64, 8192]) in place of the auto-sized span; neither SetMsgFaults
// nor an NCU backlog then grows it. The span is pure mechanism — any size yields the same
// observables — so production code has no such knob: tests use this one to
// force the overflow heap.
func WithFixedRing(n int) Option {
	return func(cf *config) { cf.ringWindow = n }
}

// Shards returns the number of event cores executing this network's runs.
func (net *Network) Shards() int {
	if net.group != nil {
		return len(net.group.children)
	}
	return 1
}

// RingWindow returns the current calendar-ring span in instants.
func (net *Network) RingWindow() int {
	if net.group != nil {
		return len(net.group.children[0].sp.ring)
	}
	return len(net.sp.ring)
}

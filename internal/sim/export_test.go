package sim

// SpineShape reports the length of the same-time lane and of the longest
// calendar-ring slot, for tests that must know what a spill is about to move.
func (net *Network) SpineShape() (lane, longestSlot int) {
	for s := range net.ring {
		longestSlot = max(longestSlot, net.ring[s].n)
	}
	return net.lane.n, longestSlot
}

package sim

import (
	"fastnet/internal/core"
)

// WithCapacity enables the finite-resource model (core.Capacity): a cap on
// each NCU's activation backlog and a token bucket on every directed link.
// The zero Capacity (the default) disables both limits and leaves every code
// path — and therefore every golden trace, metric string, and soak line —
// exactly as it was before the capacity dimension existed.
func WithCapacity(c core.Capacity) Option {
	return func(cf *config) { cf.cap = c }
}

// linkBucket is one directed link's token state: tok tokens as of virtual
// time last, refilled lazily at Capacity.LinkRate up to Capacity.Burst when
// next touched. Lazy refill keeps admission O(1) per traversal with no
// periodic refill events.
type linkBucket struct {
	tok  float64
	last core.Time
}

// applyCapacity installs c and (re)builds the per-node capacity state: the
// pending-activation counters (nil unless NCUQueue > 0 — the nil check is
// the hot path's entire cost when the model is off) and the per-directed-link
// token buckets, laid out as one contiguous arena mirroring the port arena.
func (net *Network) applyCapacity(c core.Capacity) {
	net.cfg.cap = c
	var pend []int32
	var tok [][]linkBucket
	if c.NCUQueue > 0 {
		pend = make([]int32, len(net.nodes))
	}
	if c.LinkRate > 0 {
		tok = make([][]linkBucket, len(net.nodes))
		total := 0
		for i := range net.nodes {
			total += len(net.links[i])
		}
		arena := make([]linkBucket, total)
		burst := c.Burst()
		off := 0
		for i := range net.nodes {
			n := len(net.links[i])
			row := arena[off : off+n : off+n]
			for j := range row {
				row[j] = linkBucket{tok: burst, last: net.sp.now}
			}
			tok[i] = row
			off += n
		}
	}
	net.pendAct, net.linkTok = pend, tok
	if net.group != nil {
		for _, ch := range net.group.children {
			ch.cfg.cap = c
			ch.pendAct, ch.linkTok = pend, tok
		}
	}
}

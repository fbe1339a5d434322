package faults

import "fastnet/internal/core"

// msgFaultSchedule yields the lossy-link profile for each epoch, the
// message-level sibling of the link-level generator plans. Schedules are
// pure functions of the epoch number so soak runs stay seed-deterministic.
type msgFaultSchedule interface {
	Profile(epoch int) core.MsgFaults
}

// constantFaults applies the same profile every epoch.
type constantFaults struct {
	P core.MsgFaults
}

// Profile implements msgFaultSchedule.
func (s constantFaults) Profile(int) core.MsgFaults { return s.P }

// burstyFaults models weather: the base profile most epochs, scaled up every
// Every-th epoch (loss comes in storms, not as a stationary rate).
type burstyFaults struct {
	Base  core.MsgFaults
	Every int     // burst period in epochs (<= 0 disables bursts)
	Scale float64 // burst multiplier applied to every probability
}

// Profile implements msgFaultSchedule.
func (s burstyFaults) Profile(epoch int) core.MsgFaults {
	if s.Every > 0 && epoch%s.Every == s.Every-1 {
		return s.Base.Scale(s.Scale)
	}
	return s.Base
}

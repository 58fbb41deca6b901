package main

import "time"

// openLoop issues operation i at start + i·interval whether or not the
// previous one has returned in time: independent users do not wait for
// each other. It sends synchronously on one connection, so a stall makes
// the following sends late; each op is handed its due time, and timing
// from there charges the stall to every request it delayed.
type openLoop struct {
	start    time.Time
	interval time.Duration
	now      func() time.Time
	sleep    func(time.Duration)
}

// run sends every op due before until and returns how many it sent and
// the longest any send started after its due time.
func (o openLoop) run(until time.Time, op func(i int, due time.Time)) (sent int, maxLate time.Duration) {
	for i := 0; ; i++ {
		due := o.start.Add(time.Duration(i) * o.interval)
		if !due.Before(until) {
			return i, maxLate
		}
		if wait := due.Sub(o.now()); wait > 0 {
			o.sleep(wait)
		}
		if late := o.now().Sub(due); late > maxLate {
			maxLate = late
		}
		op(i, due)
	}
}

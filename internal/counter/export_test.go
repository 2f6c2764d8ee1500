package counter

// UndrainedSwitchHookedForTest is the refuted switch for
// TestAdaptiveUndrainedSwitchRefuted: SwitchToHooked without the drain
// step. It takes the shipped switch lock, seals like switchTo and
// installs through the shipped install, so the missing wait for
// in-flight draws is its only difference from the explored switch —
// the refutation that gives the gap-free transition tests their teeth.
func (c *AdaptiveCounter) UndrainedSwitchHookedForTest(kind EngineKind, yield func(op string), block func(op string, ready func() bool)) {
	c.lockSwitch(yield, block)
	defer c.switchMu.Unlock()
	e := c.cur.Load()
	if e.kind == kind {
		return
	}
	yield("seal")
	e.sealed.Store(true)
	c.install(e, kind, "undrained", yield)
}

// ProbingGovernHookedForTest is the refuted governor for
// TestAdaptiveProbingGovernorRefuted: GovernHooked plus one discarded
// draw per tick through a handle of its own, as a governor that timed
// probe draws to measure latency would take. It runs the shipped
// decision step, so the values its probe mints and no caller receives
// are its only difference from the explored governor.
func (c *AdaptiveCounter) ProbingGovernHookedForTest(ticks []GovernorTick, yield func(op string), block func(op string, ready func() bool)) {
	probe := c.Handle(1).(*AdaptiveHandle)
	var discard [1]int64
	var g govState
	for _, t := range ticks {
		probe.DrawHooked(discard[:], yield, block)
		c.decide(&g, t, yield, block)
	}
}

// TicketArriveHookedForTest is the refuted barrier rule for
// TestTicketGenerationRefuted: generation and release decided by the
// ticket value, releasing when the generation's highest ticket
// arrives. It draws from the barrier's own counter and waits on its
// own lock and release count, instrumented like AwaitHooked.
func (b *Barrier) TicketArriveHookedForTest(wire int, yield func(op string), block func(op string, ready func() bool)) int64 {
	t := b.ctr.NextOnHooked(wire, yield)
	gen := t / b.n
	boundary := (gen + 1) * b.n
	yield("barrier gate")
	b.mu.Lock()
	if t == boundary-1 {
		if boundary > b.done {
			b.done = boundary
		}
		b.mu.Unlock()
		return gen
	}
	b.mu.Unlock()
	block("barrier wait", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.done >= boundary
	})
	return gen
}

package counter

// Test-only accessors. UnsafeDisableDrainForTest removes the drain
// step from hooked switches so the exploration tests can prove the
// sched harness catches the resulting lost/duplicated values — the
// refutation that gives the gap-free transition tests their teeth.
func (c *AdaptiveCounter) UnsafeDisableDrainForTest() { c.unsafeNoDrain = true }

// ChooseEngineForTest exposes the governor's banding decision.
func ChooseEngineForTest(cur EngineKind, load float64, pol *AdaptivePolicy) EngineKind {
	return chooseEngine(cur, load, pol)
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

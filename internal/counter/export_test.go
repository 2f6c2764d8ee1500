package counter

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

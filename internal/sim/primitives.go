package sim

// This file provides sim-aware synchronization and queueing primitives used
// by the runtime models: a counted FIFO semaphore (the srun concurrency
// ceiling), a callback FIFO (component pipes), and a queueing server with a
// pluggable service-time function (the Slurm step registrar, the Dragon
// dispatcher).

// WaitGroup counts outstanding operations in virtual time and fires
// registered callbacks (through the engine, preserving deterministic event
// order) when the count reaches zero. Coupled tasks use it to block their
// process body on a burst of inference requests.
type WaitGroup struct {
	eng *Engine
	n   int
	fns []func()
}

// NewWaitGroup returns a wait group bound to the engine.
func NewWaitGroup(eng *Engine) *WaitGroup {
	return &WaitGroup{eng: eng}
}

// Add increments the outstanding-operation count.
func (wg *WaitGroup) Add(n int) {
	if n < 0 {
		panic("sim: WaitGroup.Add of negative count")
	}
	wg.n += n
}

// Done marks one operation complete; at zero, all waiters fire.
func (wg *WaitGroup) Done() {
	if wg.n <= 0 {
		panic("sim: WaitGroup.Done without Add")
	}
	wg.n--
	if wg.n == 0 {
		fns := wg.fns
		wg.fns = nil
		for _, fn := range fns {
			wg.eng.Immediately(fn)
		}
	}
}

// Pending returns the outstanding-operation count.
func (wg *WaitGroup) Pending() int { return wg.n }

// Wait registers fn to fire when the count reaches zero; if it already is
// zero, fn fires at the current time via the engine.
func (wg *WaitGroup) Wait(fn func()) {
	if wg.n == 0 {
		wg.eng.Immediately(fn)
		return
	}
	wg.fns = append(wg.fns, fn)
}

// Semaphore is a counted semaphore with FIFO waiters in virtual time.
// The zero value is unusable; use NewSemaphore.
type Semaphore struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  []semWaiter
	// HighWater tracks the maximum number of simultaneously held units,
	// useful for asserting concurrency ceilings in tests.
	HighWater int
}

type semWaiter struct {
	n   int
	fn  func(any)
	arg any
}

// NewSemaphore returns a semaphore with the given capacity.
func NewSemaphore(eng *Engine, capacity int) *Semaphore {
	if capacity < 0 {
		panic("sim: negative semaphore capacity")
	}
	return &Semaphore{eng: eng, capacity: capacity}
}

// Capacity returns the total number of units.
func (s *Semaphore) Capacity() int { return s.capacity }

// InUse returns the number of currently held units.
func (s *Semaphore) InUse() int { return s.inUse }

// Acquire requests n units and invokes fn (asynchronously, via the engine)
// once they are granted. Grants are strictly FIFO: a large request at the
// head of the queue blocks later small ones, matching how Slurm serializes
// step creation.
func (s *Semaphore) Acquire(n int, fn func()) {
	s.AcquireCall(n, callFunc, fn)
}

// callFunc runs a func() carried as an event argument (a func value is
// pointer-shaped, so boxing it allocates nothing).
func callFunc(arg any) { arg.(func())() }

// AcquireCall is Acquire for hot paths: once the units are granted it
// invokes fn(arg) through the engine's pooled arg-carrying event, so a
// caller with a prebound fn pays no closure allocation per acquisition.
func (s *Semaphore) AcquireCall(n int, fn func(any), arg any) {
	if n <= 0 {
		panic("sim: Acquire of non-positive units")
	}
	if n > s.capacity {
		panic("sim: Acquire exceeds semaphore capacity")
	}
	s.waiters = append(s.waiters, semWaiter{n: n, fn: fn, arg: arg})
	s.dispatch()
}

// TryAcquire grants n units immediately if available and no earlier waiter
// is queued; it reports whether the grant happened.
func (s *Semaphore) TryAcquire(n int) bool {
	if n <= 0 || n > s.capacity {
		return false
	}
	if len(s.waiters) > 0 || s.inUse+n > s.capacity {
		return false
	}
	s.inUse += n
	if s.inUse > s.HighWater {
		s.HighWater = s.inUse
	}
	return true
}

// Release returns n units and wakes eligible waiters.
func (s *Semaphore) Release(n int) {
	if n <= 0 {
		panic("sim: Release of non-positive units")
	}
	if n > s.inUse {
		panic("sim: Release of units never acquired")
	}
	s.inUse -= n
	s.dispatch()
}

func (s *Semaphore) dispatch() {
	for len(s.waiters) > 0 {
		w := s.waiters[0]
		if s.inUse+w.n > s.capacity {
			return
		}
		s.waiters = s.waiters[1:]
		s.inUse += w.n
		if s.inUse > s.HighWater {
			s.HighWater = s.inUse
		}
		// Run the continuation through the engine so grant ordering is
		// part of the deterministic event sequence.
		s.eng.ImmediatelyCall(w.fn, w.arg)
	}
}

// FIFO is an unbounded queue connecting producer and consumer components.
// A consumer registers a pull callback; items are handed over one at a time
// through the engine, preserving event ordering.
type FIFO[T any] struct {
	eng      *Engine
	items    []T
	pull     func(T)
	draining bool
	// deliverFn is the prebound deliver method, so scheduling a delivery
	// does not allocate a fresh method value per event.
	deliverFn func()
	// Depth metrics for overhead analysis.
	HighWater int
	pushed    uint64
	popped    uint64
}

// NewFIFO returns an empty queue bound to the engine.
func NewFIFO[T any](eng *Engine) *FIFO[T] {
	q := &FIFO[T]{eng: eng}
	q.deliverFn = q.deliver
	return q
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) }

// Pushed returns the total number of items ever pushed.
func (q *FIFO[T]) Pushed() uint64 { return q.pushed }

// Popped returns the total number of items ever delivered.
func (q *FIFO[T]) Popped() uint64 { return q.popped }

// Push appends an item and schedules delivery if a consumer is attached.
func (q *FIFO[T]) Push(item T) {
	q.items = append(q.items, item)
	q.pushed++
	if len(q.items) > q.HighWater {
		q.HighWater = len(q.items)
	}
	q.kick()
}

// SetConsumer attaches the pull callback. Each queued item is delivered in
// its own engine event. Only one consumer may be attached.
func (q *FIFO[T]) SetConsumer(pull func(T)) {
	if q.pull != nil {
		panic("sim: FIFO already has a consumer")
	}
	q.pull = pull
	q.kick()
}

func (q *FIFO[T]) kick() {
	if q.pull == nil || q.draining || len(q.items) == 0 {
		return
	}
	q.draining = true
	q.eng.Immediately(q.deliverFn)
}

func (q *FIFO[T]) deliver() {
	if len(q.items) == 0 {
		q.draining = false
		return
	}
	item := q.items[0]
	var zero T
	q.items[0] = zero
	q.items = q.items[1:]
	q.popped++
	q.pull(item)
	if len(q.items) > 0 {
		q.eng.Immediately(q.deliverFn)
	} else {
		q.draining = false
	}
}

// Server models a queueing station with a fixed number of parallel servers
// and a per-item service-time function. It is the building block for the
// Slurm step registrar (1 server, rate degrading with allocation size) and
// the Dragon dispatcher (1 server, constant rate).
//
// The station is allocation-lean: waiting items live by value in a FIFO
// slice, in-service items by value in a per-server slot array, and service
// completion is scheduled through AfterCall with the slot index as the
// argument — small ints box for free, so a pass through the station costs
// no per-item heap allocation.
type Server[T any] struct {
	eng      *Engine
	servers  int
	busy     int
	queue    []serverItem[T]
	qhead    int
	service  func(T) Duration
	complete func(T)
	// inService holds the item each busy server slot is working on;
	// slotBusy marks occupancy. finishFn is the prebound completion.
	inService []serverItem[T]
	slotBusy  []bool
	finishFn  func(any)
	busyTotal Duration
}

type serverItem[T any] struct {
	item T
	d    Duration
}

// NewServer returns a station with n parallel servers. service returns the
// virtual service duration per item; complete is invoked when an item
// finishes service.
func NewServer[T any](eng *Engine, n int, service func(T) Duration, complete func(T)) *Server[T] {
	if n <= 0 {
		panic("sim: Server needs at least one server")
	}
	if service == nil {
		panic("sim: Server needs a service function")
	}
	s := &Server[T]{
		eng: eng, servers: n, service: service, complete: complete,
		inService: make([]serverItem[T], n),
		slotBusy:  make([]bool, n),
	}
	s.finishFn = s.finish
	return s
}

// QueueLen returns the number of items waiting (not in service).
func (s *Server[T]) QueueLen() int { return len(s.queue) - s.qhead }

// Busy returns the number of items in service.
func (s *Server[T]) Busy() int { return s.busy }

// BusyTotal returns accumulated busy server-time.
func (s *Server[T]) BusyTotal() Duration { return s.busyTotal }

// Submit enqueues an item for service; the server's completion callback
// receives it when its service ends.
func (s *Server[T]) Submit(item T) {
	s.queue = append(s.queue, serverItem[T]{item: item})
	s.pump()
}

func (s *Server[T]) pump() {
	for s.busy < s.servers && s.qhead < len(s.queue) {
		it := s.queue[s.qhead]
		var zero serverItem[T]
		s.queue[s.qhead] = zero
		s.qhead++
		// Compact the drained prefix so memory tracks the live
		// backlog, not the cumulative submission count: reset when
		// empty, shift when the dead prefix passes half the slice.
		if s.qhead == len(s.queue) {
			s.queue = s.queue[:0]
			s.qhead = 0
		} else if s.qhead > len(s.queue)/2 {
			n := copy(s.queue, s.queue[s.qhead:])
			clear(s.queue[n:])
			s.queue = s.queue[:n]
			s.qhead = 0
		}
		slot := s.takeSlot()
		s.busy++
		d := s.service(it.item)
		if d < 0 {
			d = 0
		}
		it.d = d
		s.inService[slot] = it
		// The event fires exactly d later in virtual time, so the busy
		// span equals the service duration — no start timestamp needed.
		s.eng.AfterCall(d, s.finishFn, slot)
	}
}

func (s *Server[T]) takeSlot() int {
	for i, b := range s.slotBusy {
		if !b {
			s.slotBusy[i] = true
			return i
		}
	}
	panic("sim: Server has busy count below capacity but no free slot")
}

func (s *Server[T]) finish(arg any) {
	slot := arg.(int)
	it := s.inService[slot]
	var zero serverItem[T]
	s.inService[slot] = zero
	s.slotBusy[slot] = false
	s.busy--
	s.busyTotal += it.d
	if s.complete != nil {
		s.complete(it.item)
	}
	s.pump()
}

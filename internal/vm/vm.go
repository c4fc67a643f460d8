// Package vm interprets compiled PML modules against a simulated persistent
// memory pool plus a volatile heap.
//
// The machine provides the runtime behaviors the paper's evaluation needs:
//
//   - Cooperative threads (spawn/yield/lock/unlock) so concurrency bugs can
//     persist bad state (paper §2.4 "Concurrency Bugs").
//   - Traps carrying the fault instruction and stack trace — the inputs to
//     the Arthas detector (§4.3).
//   - An instruction budget that converts infinite loops into detectable
//     hangs (the CCEH directory-doubling and Memcached refcount cases).
//   - Scheduled fault injections (bit flips, crashes) for the hardware-fault
//     and untimely-crash cases.
//   - A trace sink: instructions carrying a GUID emit <GUID, PM address>
//     events, the lightweight runtime tracing of §4.1.
//   - Recovery-window access recording between recover_begin/recover_end,
//     which drives leak mitigation (§4.7).
//
// Volatile state (registers, globals, volatile heap, threads) lives in the
// Machine and vanishes when the Machine is discarded; persistent state lives
// in the pool and survives. A process restart is: drop the Machine, call
// pool.Crash(), build a new Machine on the same pool.
//
// The package holds NO package-level mutable state (the only package var is
// the immutable trapNames table), so independent Machines on independent
// pools may run on concurrent goroutines — parallel speculative mitigation
// runs one Machine per copy-on-write pool fork this way. A compiled
// *ir.Module is shared read-only across those Machines; the only writes to
// a module happen during analysis instrumentation, before execution.
package vm

import (
	"errors"
	"fmt"

	"arthas/internal/ir"
	"arthas/internal/obs"
	"arthas/internal/pmem"
)

// Config tunes a Machine.
type Config struct {
	// StepLimit bounds the instructions executed by a single Call
	// (default 50M). Exceeding it raises TrapStepLimit — hang detection.
	StepLimit int64
	// PreemptEvery forces a thread switch every N steps (0 = cooperative
	// only: switches happen at yield, lock contention, spawn, and exit).
	PreemptEvery int64
	// MaxCallDepth bounds recursion (default 4096).
	MaxCallDepth int
}

func (c Config) withDefaults() Config {
	if c.StepLimit == 0 {
		c.StepLimit = 50_000_000
	}
	if c.MaxCallDepth == 0 {
		c.MaxCallDepth = 4096
	}
	return c
}

// Injection is a scheduled fault: at logical step AtStep, Apply runs against
// the machine. Use it for hardware bit flips and untimely crashes.
type Injection struct {
	AtStep int64
	Apply  func(m *Machine) *Trap // non-nil trap aborts execution (e.g. crash)
	done   bool
}

// frame is one activation record.
type frame struct {
	fn     *ir.Function
	regs   []int64
	block  int
	idx    int
	retDst int // register in the CALLER frame to receive our return value
}

// threadState enumerates scheduler states.
type threadState int

const (
	threadRunnable threadState = iota
	threadBlocked              // on a lock word
	threadDone
)

// thread is one cooperative thread.
type thread struct {
	id       int
	frames   []*frame
	state    threadState
	lockAddr uint64 // when blocked
	result   int64

	txActive bool
	txWrites []pmem.Range
	txSeen   map[uint64]bool
}

// Machine executes one PML module against one pool.
type Machine struct {
	Mod  *ir.Module
	Pool *pmem.Pool
	cfg  Config

	globals []int64
	vheap   *vheap
	threads []*thread
	nextTID int

	steps int64 // lifetime logical clock

	// Output collects emit(v) values from all Calls in order.
	Output []int64

	// TraceSink, when set, receives <GUID, PM address> events from
	// instrumented PM-writing instructions (§4.1). The checkpoint sequence
	// number at the time of the event is correlated by the caller.
	TraceSink func(guid int, addr uint64)
	// TraceReadSink, when set, receives <GUID, PM address> events from
	// instrumented PM loads (recency signal; bounded by the tracer).
	TraceReadSink func(guid int, addr uint64)
	// WriteSink, when set, receives the same <GUID, PM address> store events
	// as TraceSink. It feeds the provenance lineage index; kept separate so
	// tracing and lineage can be enabled independently.
	WriteSink func(guid int, addr uint64)

	// Injections are scheduled faults, applied when the clock reaches them.
	Injections []*Injection

	// loadErr latches the pool error behind the most recent failed loadMem,
	// letting opcode handlers raise TrapMediaCorrupt instead of TrapSegfault
	// when the address was fine but the medium lied.
	loadErr error

	// inRecovery tracks the recover_begin/recover_end window.
	inRecovery bool
	// RecoveryAccess records every PM address loaded or stored inside a
	// recovery window (leak mitigation input, §4.7).
	RecoveryAccess map[uint64]bool

	// yieldFlag is set by OpYield to request a scheduler switch away from
	// the yielding thread at the top of the run loop.
	yieldFlag *thread

	// flushQueue holds ranges queued by flush() (the clwb analogue) and
	// not yet drained by fence(). Like real write-pending-queue contents,
	// it is volatile: a crash before the fence loses the queued lines.
	flushQueue []pmem.Range

	// sink receives execution telemetry. The per-instruction path only
	// bumps a local opCounts slot behind the cached obsOn branch; counts
	// are flushed to the sink when a Call completes, so enabling tracing
	// never adds a sink call per instruction.
	sink     obs.Sink
	obsOn    bool
	opCounts [numOps]int64
	// ObsFlush, when set, runs at the head of that flush (so only with a
	// sink enabled): the deployment points it at the FlushObs of the layers
	// under the machine — pool, checkpoint log, trace, provenance — which
	// tally per word in plain fields and publish here, once per request.
	ObsFlush func()
	// callAttrs caches each function's vm.call span attribute, so a call
	// boxes no name string and builds no variadic slice.
	callAttrs map[*ir.Function][]obs.Attr
}

const numOps = int(ir.OpRecoverEnd) + 1

// opCounterNames and trapCounterNames are the vm.op.* / vm.trap.* counter
// names, built once: the flush runs per request.
var (
	opCounterNames   [numOps]string
	trapCounterNames [len(trapNames)]string
)

func init() {
	for op := range opCounterNames {
		opCounterNames[op] = "vm.op." + ir.Op(op).String()
	}
	for k := range trapCounterNames {
		trapCounterNames[k] = "vm.trap." + TrapKind(k).String()
	}
}

// New builds a machine. Globals are initialized from the module — fresh
// volatile state, as after a process start.
func New(mod *ir.Module, pool *pmem.Pool, cfg Config) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{
		Mod:            mod,
		Pool:           pool,
		cfg:            cfg,
		vheap:          newVHeap(),
		RecoveryAccess: map[uint64]bool{},
		sink:           obs.Nop(),
	}
	m.globals = make([]int64, len(mod.Globals))
	for i, g := range mod.Globals {
		m.globals[i] = g.Init
	}
	return m
}

// Steps returns the machine's logical clock.
func (m *Machine) Steps() int64 { return m.steps }

// SetSink installs an observability sink (nil restores the no-op).
func (m *Machine) SetSink(s obs.Sink) {
	m.sink = obs.OrNop(s)
	m.obsOn = m.sink.Enabled()
}

// flushObs publishes what accumulated since the last flush: the layers'
// tallies (ObsFlush), then the instruction counts — total retired and one
// vm.op.<name> counter per opcode actually executed. A trap (if any) is
// classified by kind.
func (m *Machine) flushObs(retired int64, trap *Trap) {
	if m.ObsFlush != nil {
		m.ObsFlush()
	}
	m.sink.Count("vm.instructions", retired)
	for op, n := range m.opCounts {
		if n == 0 {
			continue
		}
		m.sink.Count(opCounterNames[op], n)
		m.opCounts[op] = 0
	}
	if trap != nil {
		m.sink.Count("vm.traps", 1)
		m.sink.Count(trapCounterNames[trap.Kind], 1)
	}
}

// Global returns a global's current value by name.
func (m *Machine) Global(name string) (int64, bool) {
	i, ok := m.Mod.GlobIdx[name]
	if !ok {
		return 0, false
	}
	return m.globals[i], true
}

// SetGlobal sets a global by name (harness hook for trigger conditions).
func (m *Machine) SetGlobal(name string, v int64) bool {
	i, ok := m.Mod.GlobIdx[name]
	if !ok {
		return false
	}
	m.globals[i] = v
	return true
}

// Call invokes fn with args as a new main thread and runs the scheduler
// until that thread returns or a trap occurs. Background threads spawned
// earlier keep their state and are co-scheduled.
func (m *Machine) Call(fnName string, args ...int64) (int64, *Trap) {
	f := m.Mod.Func(fnName)
	if !m.obsOn {
		return m.call(f, fnName, args)
	}
	span := m.sink.Start("vm.call", m.callAttr(f, fnName)...)
	before := m.steps
	v, trap := m.call(f, fnName, args)
	m.flushObs(m.steps-before, trap)
	if trap != nil {
		span.SetAttr("trap", trap.Kind.String())
	}
	span.End()
	return v, trap
}

// call is Call without the telemetry; f is nil when fnName names no function.
func (m *Machine) call(f *ir.Function, fnName string, args []int64) (int64, *Trap) {
	if f == nil {
		return 0, &Trap{Kind: TrapInternal, Msg: fmt.Sprintf("no function %q", fnName), Step: m.steps}
	}
	if len(args) != f.NumParams {
		return 0, &Trap{Kind: TrapInternal,
			Msg: fmt.Sprintf("%s takes %d args, got %d", fnName, f.NumParams, len(args)), Step: m.steps}
	}
	v, trap := m.run(m.newThread(f, args))
	m.dropUnfenced()
	return v, trap
}

// callAttr returns the vm.call span's fn attribute, cached per function.
// Unknown names are not cached: callers choose them.
func (m *Machine) callAttr(f *ir.Function, fnName string) []obs.Attr {
	if f == nil {
		return []obs.Attr{obs.A("fn", fnName)}
	}
	attrs := m.callAttrs[f]
	if attrs == nil {
		attrs = []obs.Attr{obs.A("fn", fnName)}
		if m.callAttrs == nil {
			m.callAttrs = map[*ir.Function][]obs.Attr{}
		}
		m.callAttrs[f] = attrs
	}
	return attrs
}

// dropUnfenced empties the write-pending queue once no thread is left that
// could still fence it. Queued-but-unfenced lines are volatile: letting them
// linger across Call boundaries would allow a later call's fence to drain
// them, making state look durable that a crash between the calls would have
// lost. Live background threads keep their epoch open (they may still
// fence), so the queue survives until quiescence.
func (m *Machine) dropUnfenced() {
	if len(m.flushQueue) == 0 || m.BackgroundThreads() > 0 {
		return
	}
	if m.obsOn {
		m.sink.Count("vm.flush_dropped", int64(len(m.flushQueue)))
	}
	m.flushQueue = m.flushQueue[:0]
}

// FlushQueueLen reports how many flushed-but-unfenced ranges are queued
// (test hook for the queue-lifecycle invariant).
func (m *Machine) FlushQueueLen() int { return len(m.flushQueue) }

// DrainBackground runs pending background threads until they finish, block,
// or the budget is consumed. It models the idle time a server has between
// requests, during which async workers (e.g. PMEMKV's lazy free) proceed.
func (m *Machine) DrainBackground(maxSteps int64) (trap *Trap) {
	if m.obsOn {
		before := m.steps
		defer func() { m.flushObs(m.steps-before, trap) }()
	}
	deadline := m.steps + maxSteps
	var last *thread
	for m.steps < deadline {
		th := m.pickRunnable(last)
		if th == nil {
			m.gcThreads()
			m.dropUnfenced()
			return nil
		}
		last = th
		if trap := m.execStep(th); trap != nil {
			return trap
		}
	}
	m.gcThreads()
	return nil
}

// BackgroundThreads reports how many spawned threads are still live.
func (m *Machine) BackgroundThreads() int {
	n := 0
	for _, t := range m.threads {
		if t.state != threadDone {
			n++
		}
	}
	return n
}

func (m *Machine) newThread(f *ir.Function, args []int64) *thread {
	th := &thread{id: m.nextTID, state: threadRunnable}
	m.nextTID++
	fr := &frame{fn: f, regs: make([]int64, f.NumRegs), retDst: -1}
	copy(fr.regs, args)
	th.frames = []*frame{fr}
	m.threads = append(m.threads, th)
	return th
}

// run drives the scheduler until the given main thread completes.
func (m *Machine) run(main *thread) (int64, *Trap) {
	budget := m.steps + m.cfg.StepLimit
	cur := main
	sinceSwitch := int64(0)
	for {
		if main.state == threadDone {
			m.gcThreads()
			return main.result, nil
		}
		if m.steps >= budget {
			return 0, m.trapAt(cur, TrapStepLimit, "instruction budget exhausted (hang)")
		}
		wantSwitch := m.yieldFlag != nil && m.yieldFlag == cur
		m.yieldFlag = nil
		if cur == nil || cur.state != threadRunnable || wantSwitch ||
			(m.cfg.PreemptEvery > 0 && sinceSwitch >= m.cfg.PreemptEvery) {
			next := m.pickRunnable(cur)
			if next == nil {
				if main.state == threadBlocked || m.anyBlocked() {
					return 0, m.trapAt(main, TrapDeadlock, "all live threads blocked on locks")
				}
				return 0, m.trapAt(main, TrapInternal, "scheduler found no runnable thread")
			}
			cur = next
			sinceSwitch = 0
		}
		if trap := m.execStep(cur); trap != nil {
			return 0, trap
		}
		sinceSwitch++
	}
}

// pickRunnable chooses the next runnable thread after cur (round robin).
// Blocked threads are re-checked: if their lock word is now free, they wake.
func (m *Machine) pickRunnable(cur *thread) *thread {
	if len(m.threads) == 0 {
		return nil
	}
	start := 0
	if cur != nil {
		for i, t := range m.threads {
			if t == cur {
				start = i + 1
				break
			}
		}
	}
	n := len(m.threads)
	for k := 0; k < n; k++ {
		t := m.threads[(start+k)%n]
		switch t.state {
		case threadRunnable:
			return t
		case threadBlocked:
			if v, ok := m.loadMem(t.lockAddr); ok && v == 0 {
				t.state = threadRunnable
				return t
			}
		}
	}
	return nil
}

func (m *Machine) anyBlocked() bool {
	for _, t := range m.threads {
		if t.state == threadBlocked {
			return true
		}
	}
	return false
}

func (m *Machine) gcThreads() {
	live := m.threads[:0]
	for _, t := range m.threads {
		if t.state != threadDone {
			live = append(live, t)
		}
	}
	m.threads = live
}

// stack renders a thread's call stack, innermost first.
func (m *Machine) stack(th *thread) []string {
	var out []string
	for i := len(th.frames) - 1; i >= 0; i-- {
		fr := th.frames[i]
		pos := ""
		if fr.block < len(fr.fn.Blocks) && fr.idx < len(fr.fn.Blocks[fr.block].Instrs) {
			pos = fmt.Sprintf(" @ %v", fr.fn.Blocks[fr.block].Instrs[fr.idx].Pos)
		}
		out = append(out, fr.fn.Name+pos)
	}
	return out
}

func (m *Machine) trapAt(th *thread, kind TrapKind, msg string) *Trap {
	t := &Trap{Kind: kind, Msg: msg, Step: m.steps}
	if th != nil && len(th.frames) > 0 {
		fr := th.frames[len(th.frames)-1]
		t.Fn = fr.fn
		if fr.block < len(fr.fn.Blocks) && fr.idx < len(fr.fn.Blocks[fr.block].Instrs) {
			t.Instr = fr.fn.Blocks[fr.block].Instrs[fr.idx]
		}
		t.Stack = m.stack(th)
	}
	return t
}

// loadMem reads a word from whichever address space addr names. On failure
// the underlying pool error (if any) is latched in m.loadErr so the opcode
// handler can distinguish media corruption from a plain bad address.
func (m *Machine) loadMem(addr uint64) (int64, bool) {
	m.loadErr = nil
	if m.Pool.Contains(addr) {
		v, err := m.Pool.Load(addr)
		if err != nil {
			m.loadErr = err
			return 0, false
		}
		return int64(v), true
	}
	if v, ok := m.vheap.load(addr); ok {
		return v, true
	}
	return 0, false
}

// storeMem writes a word; PM stores inside a transaction are added to the
// thread's write-set for commit-time persistence.
func (m *Machine) storeMem(th *thread, addr uint64, v int64) bool {
	if m.Pool.Contains(addr) {
		if err := m.Pool.Store(addr, uint64(v)); err != nil {
			return false
		}
		if th != nil && th.txActive && !th.txSeen[addr] {
			th.txSeen[addr] = true
			th.txWrites = append(th.txWrites, pmem.Range{Addr: addr, Words: 1})
		}
		return true
	}
	return m.vheap.store(addr, v)
}

func (m *Machine) noteRecoveryAccess(addr uint64) {
	if m.inRecovery && m.Pool.Contains(addr) {
		m.RecoveryAccess[addr] = true
	}
}

// applyInjections fires any scheduled injections whose time has come.
func (m *Machine) applyInjections() *Trap {
	for _, inj := range m.Injections {
		if !inj.done && m.steps >= inj.AtStep {
			inj.done = true
			if trap := inj.Apply(m); trap != nil {
				trap.Step = m.steps
				return trap
			}
		}
	}
	return nil
}

// execStep executes one instruction of th. A non-nil return aborts the run.
func (m *Machine) execStep(th *thread) *Trap {
	m.steps++
	if len(m.Injections) > 0 {
		if trap := m.applyInjections(); trap != nil {
			return trap
		}
	}
	fr := th.frames[len(th.frames)-1]
	if fr.block >= len(fr.fn.Blocks) || fr.idx >= len(fr.fn.Blocks[fr.block].Instrs) {
		return m.trapAt(th, TrapInternal, "program counter out of range")
	}
	in := fr.fn.Blocks[fr.block].Instrs[fr.idx]
	if m.obsOn {
		m.opCounts[in.Op]++
	}

	advance := func() { fr.idx++ }

	switch in.Op {
	case ir.OpConst:
		fr.regs[in.Dst] = in.Imm
		advance()
	case ir.OpMov:
		fr.regs[in.Dst] = fr.regs[in.Args[0]]
		advance()
	case ir.OpBin:
		v, trap := m.binop(th, in, fr.regs[in.Args[0]], fr.regs[in.Args[1]])
		if trap != nil {
			return trap
		}
		fr.regs[in.Dst] = v
		advance()
	case ir.OpUn:
		x := fr.regs[in.Args[0]]
		switch ir.UnOp(in.Imm) {
		case ir.Neg:
			fr.regs[in.Dst] = -x
		case ir.LogNot:
			if x == 0 {
				fr.regs[in.Dst] = 1
			} else {
				fr.regs[in.Dst] = 0
			}
		case ir.BitNot:
			fr.regs[in.Dst] = ^x
		}
		advance()

	case ir.OpLoad:
		addr := uint64(fr.regs[in.Args[0]] + in.Off)
		if in.GUID != 0 && m.TraceReadSink != nil && m.Pool.Contains(addr) {
			m.TraceReadSink(in.GUID, addr)
		}
		v, ok := m.loadMem(addr)
		if !ok {
			kind, what := TrapSegfault, "load from invalid address"
			if errors.Is(m.loadErr, pmem.ErrMediaCorrupt) {
				kind, what = TrapMediaCorrupt, "load from corrupt media at"
			}
			t := m.trapAt(th, kind, fmt.Sprintf("%s %#x", what, addr))
			t.Addr = addr
			return t
		}
		m.noteRecoveryAccess(addr)
		fr.regs[in.Dst] = v
		advance()

	case ir.OpStore:
		addr := uint64(fr.regs[in.Args[0]] + in.Off)
		if in.GUID != 0 && (m.TraceSink != nil || m.WriteSink != nil) && m.Pool.Contains(addr) {
			if m.TraceSink != nil {
				m.TraceSink(in.GUID, addr)
			}
			if m.WriteSink != nil {
				m.WriteSink(in.GUID, addr)
			}
		}
		if !m.storeMem(th, addr, fr.regs[in.Args[1]]) {
			t := m.trapAt(th, TrapSegfault, fmt.Sprintf("store to invalid address %#x", addr))
			t.Addr = addr
			return t
		}
		m.noteRecoveryAccess(addr)
		advance()

	case ir.OpGlobLoad:
		fr.regs[in.Dst] = m.globals[in.Imm]
		advance()
	case ir.OpGlobStore:
		m.globals[in.Imm] = fr.regs[in.Args[0]]
		advance()

	case ir.OpCall:
		callee := m.Mod.Func(in.Callee)
		if callee == nil {
			return m.trapAt(th, TrapInternal, "call to undefined "+in.Callee)
		}
		if len(th.frames) >= m.cfg.MaxCallDepth {
			return m.trapAt(th, TrapStackOverflow, "call depth limit in "+in.Callee)
		}
		nf := &frame{fn: callee, regs: make([]int64, callee.NumRegs), retDst: in.Dst}
		for i, a := range in.Args {
			nf.regs[i] = fr.regs[a]
		}
		fr.idx++ // resume after the call upon return
		th.frames = append(th.frames, nf)

	case ir.OpSpawn:
		callee := m.Mod.Func(in.Callee)
		if callee == nil {
			return m.trapAt(th, TrapInternal, "spawn of undefined "+in.Callee)
		}
		args := make([]int64, len(in.Args))
		for i, a := range in.Args {
			args[i] = fr.regs[a]
		}
		m.newThread(callee, args)
		advance()

	case ir.OpRet:
		var v int64
		if len(in.Args) == 1 {
			v = fr.regs[in.Args[0]]
		}
		th.frames = th.frames[:len(th.frames)-1]
		if len(th.frames) == 0 {
			th.result = v
			th.state = threadDone
			return nil
		}
		caller := th.frames[len(th.frames)-1]
		if fr.retDst >= 0 {
			caller.regs[fr.retDst] = v
		}

	case ir.OpJmp:
		fr.block = in.Target
		fr.idx = 0
	case ir.OpBr:
		if fr.regs[in.Args[0]] != 0 {
			fr.block = in.Target
		} else {
			fr.block = in.Target2
		}
		fr.idx = 0

	case ir.OpPmalloc:
		n := fr.regs[in.Args[0]]
		if n < 0 {
			n = 0
		}
		addr, err := m.Pool.Zalloc(int(n))
		if err != nil {
			return m.trapAt(th, TrapPMOutOfSpace, err.Error())
		}
		if in.GUID != 0 && m.TraceSink != nil {
			m.TraceSink(in.GUID, addr)
		}
		fr.regs[in.Dst] = int64(addr)
		advance()

	case ir.OpPfree:
		addr := uint64(fr.regs[in.Args[0]])
		if in.GUID != 0 && m.TraceSink != nil && m.Pool.Contains(addr) {
			m.TraceSink(in.GUID, addr)
		}
		if err := m.Pool.Free(addr); err != nil {
			t := m.trapAt(th, TrapSegfault, "pfree: "+err.Error())
			t.Addr = addr
			return t
		}
		advance()

	case ir.OpPersist:
		addr := uint64(fr.regs[in.Args[0]])
		n := fr.regs[in.Args[1]]
		if n < 0 {
			n = 0
		}
		if in.GUID != 0 && m.TraceSink != nil && m.Pool.Contains(addr) {
			m.TraceSink(in.GUID, addr)
		}
		if th.txActive {
			// Inside a transaction an explicit persist defers to commit.
			for w := int64(0); w < n; w++ {
				a := addr + uint64(w)
				if !th.txSeen[a] {
					th.txSeen[a] = true
					th.txWrites = append(th.txWrites, pmem.Range{Addr: a, Words: 1})
				}
			}
			advance()
			break
		}
		if err := m.Pool.Persist(addr, int(n)); err != nil {
			t := m.trapAt(th, TrapSegfault, "persist: "+err.Error())
			t.Addr = addr
			return t
		}
		advance()

	case ir.OpFlush:
		// Native persistence (paper §3.2, "systems written with persistence
		// instructions such as clwb and sfence"): queue the range; it only
		// becomes durable at the next fence.
		addr := uint64(fr.regs[in.Args[0]])
		n := fr.regs[in.Args[1]]
		if n < 0 {
			n = 0
		}
		if !m.Pool.Contains(addr) {
			t := m.trapAt(th, TrapSegfault, fmt.Sprintf("flush of invalid address %#x", addr))
			t.Addr = addr
			return t
		}
		if in.GUID != 0 && m.TraceSink != nil {
			m.TraceSink(in.GUID, addr)
		}
		m.flushQueue = append(m.flushQueue, pmem.Range{Addr: addr, Words: int(n)})
		advance()

	case ir.OpFence:
		// Drain the queue: everything flushed is now durable, firing the
		// same checkpoint hooks the library persist path fires.
		for _, r := range coalesce(m.flushQueue) {
			if err := m.Pool.Persist(r.Addr, r.Words); err != nil {
				return m.trapAt(th, TrapSegfault, "fence: "+err.Error())
			}
		}
		m.flushQueue = m.flushQueue[:0]
		advance()

	case ir.OpTxBegin:
		th.txActive = true
		th.txWrites = nil
		th.txSeen = map[uint64]bool{}
		advance()

	case ir.OpTxCommit:
		if th.txActive {
			th.txActive = false
			if err := m.Pool.PersistTx(coalesce(th.txWrites)); err != nil {
				return m.trapAt(th, TrapSegfault, "txcommit: "+err.Error())
			}
			th.txWrites, th.txSeen = nil, nil
		}
		advance()

	case ir.OpSetRoot:
		slot := fr.regs[in.Args[0]]
		addr := uint64(fr.regs[in.Args[1]])
		if in.GUID != 0 && m.TraceSink != nil && m.Pool.Contains(addr) {
			m.TraceSink(in.GUID, addr)
		}
		if err := m.Pool.SetRoot(int(slot), addr); err != nil {
			return m.trapAt(th, TrapSegfault, "setroot: "+err.Error())
		}
		advance()

	case ir.OpGetRoot:
		v, err := m.Pool.Root(int(fr.regs[in.Args[0]]))
		if err != nil {
			return m.trapAt(th, TrapSegfault, "getroot: "+err.Error())
		}
		fr.regs[in.Dst] = int64(v)
		advance()

	case ir.OpPmSize:
		addr := uint64(fr.regs[in.Args[0]])
		n, err := m.Pool.BlockSize(addr)
		if err != nil {
			n = 0
		}
		fr.regs[in.Dst] = int64(n)
		advance()

	case ir.OpPmRealloc:
		// Resize a persistent block: allocate, copy, persist the copy,
		// free the old block (paper §4.2's resize case — the checkpoint
		// log links the histories via old_entry when the address is
		// reused).
		old := uint64(fr.regs[in.Args[0]])
		n := fr.regs[in.Args[1]]
		if n < 1 {
			n = 1
		}
		oldSize, err := m.Pool.BlockSize(old)
		if err != nil {
			t := m.trapAt(th, TrapSegfault, "pmrealloc: "+err.Error())
			t.Addr = old
			return t
		}
		naddr, err := m.Pool.Zalloc(int(n))
		if err != nil {
			return m.trapAt(th, TrapPMOutOfSpace, err.Error())
		}
		cp := oldSize
		if int(n) < cp {
			cp = int(n)
		}
		for w := 0; w < cp; w++ {
			v, _ := m.Pool.Load(old + uint64(w))
			m.Pool.Store(naddr+uint64(w), v)
		}
		if in.GUID != 0 && m.TraceSink != nil {
			m.TraceSink(in.GUID, naddr)
		}
		if in.GUID != 0 && m.WriteSink != nil {
			m.WriteSink(in.GUID, naddr)
		}
		if err := m.Pool.Persist(naddr, cp); err != nil {
			return m.trapAt(th, TrapSegfault, "pmrealloc persist: "+err.Error())
		}
		if err := m.Pool.Free(old); err != nil {
			t := m.trapAt(th, TrapSegfault, "pmrealloc free: "+err.Error())
			t.Addr = old
			return t
		}
		fr.regs[in.Dst] = int64(naddr)
		advance()

	case ir.OpValloc:
		n := fr.regs[in.Args[0]]
		if n < 0 {
			n = 0
		}
		addr := m.vheap.alloc(int(n))
		if addr == 0 {
			return m.trapAt(th, TrapOOM, "volatile heap exhausted")
		}
		fr.regs[in.Dst] = int64(addr)
		advance()

	case ir.OpVfree:
		if err := m.vheap.free(uint64(fr.regs[in.Args[0]])); err != nil {
			t := m.trapAt(th, TrapSegfault, err.Error())
			t.Addr = uint64(fr.regs[in.Args[0]])
			return t
		}
		advance()

	case ir.OpYield:
		advance()
		m.yieldFlag = th // run() switches to the next runnable thread

	case ir.OpLock:
		addr := uint64(fr.regs[in.Args[0]])
		v, ok := m.loadMem(addr)
		if !ok {
			kind, what := TrapSegfault, "lock on invalid address"
			if errors.Is(m.loadErr, pmem.ErrMediaCorrupt) {
				kind, what = TrapMediaCorrupt, "lock on corrupt media at"
			}
			t := m.trapAt(th, kind, fmt.Sprintf("%s %#x", what, addr))
			t.Addr = addr
			return t
		}
		if v == 0 {
			if !m.storeMem(th, addr, 1) {
				return m.trapAt(th, TrapSegfault, "lock store failed")
			}
			advance()
		} else {
			th.state = threadBlocked
			th.lockAddr = addr
			// pc stays at the lock: retried when the thread wakes.
		}

	case ir.OpUnlock:
		addr := uint64(fr.regs[in.Args[0]])
		if !m.storeMem(th, addr, 0) {
			t := m.trapAt(th, TrapSegfault, fmt.Sprintf("unlock on invalid address %#x", addr))
			t.Addr = addr
			return t
		}
		advance()

	case ir.OpAssert:
		if fr.regs[in.Args[0]] == 0 {
			return m.trapAt(th, TrapAssert, "assertion failed")
		}
		advance()

	case ir.OpFail:
		t := m.trapAt(th, TrapUserFail, "fail() invoked")
		t.Code = fr.regs[in.Args[0]]
		return t

	case ir.OpEmit:
		m.Output = append(m.Output, fr.regs[in.Args[0]])
		advance()

	case ir.OpRecoverBegin:
		m.inRecovery = true
		advance()
	case ir.OpRecoverEnd:
		m.inRecovery = false
		advance()

	default:
		return m.trapAt(th, TrapInternal, fmt.Sprintf("unimplemented op %v", in.Op))
	}
	return nil
}

func (m *Machine) binop(th *thread, in *ir.Instr, a, b int64) (int64, *Trap) {
	switch ir.BinOp(in.Imm) {
	case ir.Add:
		return a + b, nil
	case ir.Sub:
		return a - b, nil
	case ir.Mul:
		return a * b, nil
	case ir.Div:
		if b == 0 {
			return 0, m.trapAt(th, TrapDivZero, "division by zero")
		}
		return a / b, nil
	case ir.Mod:
		if b == 0 {
			return 0, m.trapAt(th, TrapDivZero, "modulo by zero")
		}
		return a % b, nil
	case ir.And:
		return a & b, nil
	case ir.Or:
		return a | b, nil
	case ir.Xor:
		return a ^ b, nil
	case ir.Shl:
		return a << (uint64(b) & 63), nil
	case ir.Shr:
		return a >> (uint64(b) & 63), nil
	case ir.Lt:
		return b2i(a < b), nil
	case ir.Le:
		return b2i(a <= b), nil
	case ir.Gt:
		return b2i(a > b), nil
	case ir.Ge:
		return b2i(a >= b), nil
	case ir.Eq:
		return b2i(a == b), nil
	case ir.Ne:
		return b2i(a != b), nil
	}
	return 0, m.trapAt(th, TrapInternal, fmt.Sprintf("bad binop %d", in.Imm))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// coalesce merges adjacent single-word ranges into runs to reduce hook calls.
func coalesce(rs []pmem.Range) []pmem.Range {
	if len(rs) <= 1 {
		return rs
	}
	// Insertion sort by address (write-sets are small).
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Addr < rs[j-1].Addr; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Addr == last.Addr+uint64(last.Words) {
			last.Words += r.Words
		} else {
			out = append(out, r)
		}
	}
	return out
}

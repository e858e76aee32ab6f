"""The CPU interpreter.

Executes :class:`~repro.cpu.assembler.Program` objects against the node's
MMU, cache and bus.  The CPU is instruction-exact (every retired
instruction is counted, attributable to open accounting regions) and
cycle-approximate (each instruction charges its base cycles; memory
operands additionally pay real simulated cache/bus time).

Interrupts are taken between instructions: devices call
:meth:`Cpu.post_interrupt` and the registered handler generator runs before
the next instruction issues.  This models the paper's outgoing-FIFO flow
control, where "the CPU is interrupted and waits until the FIFO drains"
(section 4).

Page faults raised by the MMU restart the faulting instruction after the
kernel's fault handler runs -- used by the NIPT-consistency protocol, which
marks unmapped-out pages read-only and re-establishes mappings on write
faults (section 4.4).
"""

from repro.ckpt.protocol import Checkpointable
from repro.cpu.isa import Reg, WORD_MASK, _NO_YIELDS
from repro.memsys.cache import CachePolicy
from repro.sim.instrument import Instrumentation
from repro.sim.process import Timeout


class PageFault(Exception):
    """Raised by an MMU when a translation fails.

    ``reason`` is one of ``not-present``, ``write-protected``, ``no-access``.
    """

    def __init__(self, vaddr, access, reason):
        super().__init__("%s fault at %#x (%s)" % (access, vaddr, reason))
        self.vaddr = vaddr
        self.access = access
        self.reason = reason


class InstructionCounts(Checkpointable):
    """Retired-instruction accounting with named regions.

    Regions are opened/closed by ``RegionMarker`` pseudo-instructions; a
    retired instruction is charged to every currently open region.  This is
    how the benchmarks attribute instructions to "send overhead" vs
    "receive overhead" exactly as the paper's Table 1 does.

    ``_active`` is a count map (region name -> open depth), so nested
    same-name regions compose correctly: reopening a region does not
    double-charge retired instructions, and closing pairs with the
    innermost open (closes are just decrements, so nesting order cannot
    be confused the way a first-occurrence list removal could).
    """

    CKPT = ("total", "by_region", "copy_words", "_active")

    def __init__(self):
        self.total = 0
        self.by_region = {}
        self.copy_words = 0
        self._active = {}

    def open_region(self, name):
        self._active[name] = self._active.get(name, 0) + 1
        self.by_region.setdefault(name, 0)

    def close_region(self, name):
        depth = self._active.get(name, 0)
        if not depth:
            raise RuntimeError("closing region %r that is not open" % name)
        if depth == 1:
            del self._active[name]
        else:
            self._active[name] = depth - 1

    def on_retire(self):
        self.total += 1
        if self._active:
            by_region = self.by_region
            for name in self._active:
                by_region[name] += 1

    def region(self, name):
        """Instructions retired inside region ``name`` (0 if never opened)."""
        return self.by_region.get(name, 0)

    def reset(self):
        self.total = 0
        self.by_region = {}
        self.copy_words = 0
        self._active = {}


class RegisterFile:
    """Name-indexed mapping view over a context's register list.

    The architectural home of register values is ``Context.reg_values``, a
    fixed list indexed by :attr:`Reg.index` -- that is what the interpreter's
    hot paths touch.  This view keeps the convenient ``ctx.registers["r0"]``
    spelling working for tests, kernels and examples.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        self._values = values

    def __getitem__(self, name):
        return self._values[Reg.INDEX[name]]

    def __setitem__(self, name, value):
        self._values[Reg.INDEX[name]] = value

    def __contains__(self, name):
        return name in Reg.INDEX

    def __iter__(self):
        return iter(Reg.NAMES)

    def __len__(self):
        return len(Reg.NAMES)

    def keys(self):
        return Reg.NAMES

    def values(self):
        return tuple(self._values)

    def items(self):
        return tuple(zip(Reg.NAMES, self._values))

    def __repr__(self):
        return "RegisterFile(%s)" % (
            ", ".join("%s=%#x" % pair for pair in self.items())
        )


class Context:
    """Architectural state of one software thread (process)."""

    def __init__(self, entry_pc=0, stack_top=0):
        self.reg_values = [0] * len(Reg.NAMES)
        self.reg_values[Reg.INDEX["sp"]] = stack_top
        self.registers = RegisterFile(self.reg_values)
        self.flags = {"zf": False, "sf": False}
        self.pc = entry_pc
        self.halted = False

    def copy(self):
        other = Context()
        other.reg_values[:] = self.reg_values
        other.flags = dict(self.flags)
        other.pc = self.pc
        other.halted = self.halted
        return other


class Cpu(Checkpointable):
    """One node CPU.

    The checkpoint holds the retirement accounting.  Architectural
    contexts belong to their workload and are captured there; safepoints
    guarantee no interrupt is pending and no preemption requested.
    """

    CKPT = ("counts", "cycles_retired")
    CKPT_SKIP = {
        "context": "owned by the workload, which captures it and rewires "
                   "the pointer after restore",
        "program": "owned by the workload, like context",
        "_jump_target": "set and consumed within one instruction",
        "_pending_interrupts": "empty at a safepoint; restore clears it",
        "_preempt": "clear at a safepoint; restore clears it",
        "_interrupt_handlers": "wiring: live callables registered once at "
                               "construction, identical after restore",
    }

    def __init__(self, sim, cache, mmu, params, name="cpu"):
        self.sim = sim
        self.cache = cache
        self.mmu = mmu
        self.params = params
        self.name = name
        self.context = None
        self.program = None
        self.counts = InstructionCounts()
        self.cycles_retired = 0
        self._jump_target = None
        self._pending_interrupts = []
        self._interrupt_handlers = {}
        self.syscall_handler = None  # set by the kernel
        self.fault_handler = None  # set by the kernel
        self._preempt = False
        self._timeouts = {}  # cycles -> reusable Timeout (immutable requests)
        self.instr = Instrumentation.of(sim)
        self.interrupts_taken = self.instr.counter(name + ".interrupts")
        # The per-instruction retire path must stay counter-free; expose
        # the retired totals as probes evaluated at snapshot time instead.
        self.instr.probe(name + ".instructions", lambda: self.counts.total)
        self.instr.probe(name + ".cycles", lambda: self.cycles_retired)

    # -- register / flag access (used by instruction classes) -----------------

    def get_reg(self, reg):
        return self.context.reg_values[reg.index]

    def set_reg(self, reg, value):
        self.context.reg_values[reg.index] = value & WORD_MASK

    @property
    def flags(self):
        return self.context.flags

    def set_flags(self, result, signed_pair=None):
        self.context.flags["zf"] = result == 0
        if signed_pair is not None:
            a, b = signed_pair
            self.context.flags["sf"] = a < b
        else:
            self.context.flags["sf"] = bool(result & 0x80000000)

    def effective_addr(self, mem_operand):
        if mem_operand.base is None:
            return mem_operand.disp & WORD_MASK
        return (
            self.context.reg_values[mem_operand.base.index] + mem_operand.disp
        ) & WORD_MASK

    def jump_to(self, index):
        self._jump_target = index

    def next_pc(self):
        return self.context.pc + 1

    def halt(self):
        self.context.halted = True

    def preempt(self):
        """Ask the current run_slice to return at the next boundary
        (used by the YIELD syscall and gang-scheduling barriers)."""
        self._preempt = True

    # -- memory access ----------------------------------------------------------

    def mem_read(self, vaddr):
        # The hottest instruction executes inline this translate + cache
        # pair (see repro.cpu.isa) to shorten their generator chain; keep
        # the two in sync.
        paddr, policy = self.mmu.translate(vaddr, "read")
        value = yield from self.cache.read(paddr, policy)
        return value

    def mem_write(self, vaddr, value):
        paddr, policy = self.mmu.translate(vaddr, "write")
        yield from self.cache.write(paddr, value, policy)

    def mem_cmpxchg(self, vaddr, expected, new_value):
        """Atomic compare-exchange.  Uncached pages go to the bus locked
        (one tenure, as the NIC command protocol requires); cached pages
        are atomic by construction on a single-CPU node."""
        paddr, policy = self.mmu.translate(vaddr, "write")
        if policy == CachePolicy.UNCACHED:
            result = yield from self.cache.bus.cmpxchg(
                paddr, expected, new_value, self.name
            )
            return result
        old_value = yield from self.cache.read(paddr, policy)
        if old_value == expected:
            yield from self.cache.write(paddr, new_value, policy)
            return old_value, True
        return old_value, False

    # -- interrupts ----------------------------------------------------------------

    def register_interrupt_handler(self, cause, handler_factory):
        """``handler_factory()`` must return a fresh generator per delivery."""
        self._interrupt_handlers[cause] = handler_factory

    def post_interrupt(self, cause):
        """Queue an interrupt; it is taken before the next instruction."""
        self._pending_interrupts.append(cause)

    @property
    def interrupts_pending(self):
        return len(self._pending_interrupts)

    def _take_interrupts(self):
        while self._pending_interrupts:
            cause = self._pending_interrupts.pop(0)
            handler_factory = self._interrupt_handlers.get(cause)
            if handler_factory is None:
                raise RuntimeError(
                    "%s: interrupt %r has no registered handler" % (self.name, cause)
                )
            self.interrupts_taken.bump()
            hub = self.instr
            if hub.active:
                hub.emit(self.name, "cpu.interrupt", cause=cause)
            yield from handler_factory()

    # -- syscalls ----------------------------------------------------------------------

    def trap_syscall(self, number):
        if self.syscall_handler is None:
            raise RuntimeError("%s: syscall %r with no kernel" % (self.name, number))
        hub = self.instr
        if hub.active:
            hub.emit(self.name, "cpu.syscall", number=number)
        yield from self.syscall_handler(self, number)

    # -- execution --------------------------------------------------------------------

    def run_slice(self, program, context, max_ns=None):
        """Generator: execute until halt or the timeslice expires.

        Returns ``"halt"`` or ``"timeslice"``.  The context carries the
        program counter, so a sliced-out process resumes where it stopped.
        """
        self.program = program
        self.context = context
        sim = self.sim
        slice_start = sim._now
        bounded = max_ns is not None
        # Hot loop: everything touched per instruction is bound to a local.
        code = program.code
        code_len = len(code)
        clock_ns = self.params.cpu_clock_ns
        timeouts = self._timeouts
        while True:
            if context.halted:
                return "halt"
            if self._pending_interrupts:
                yield from self._take_interrupts()
            if self._preempt:
                self._preempt = False
                return "timeslice"
            if bounded and sim._now - slice_start >= max_ns:
                return "timeslice"
            if context.pc >= code_len:
                context.halted = True
                return "halt"
            instr = code[context.pc]
            self._jump_target = None
            cycles = instr.cycles
            if cycles:
                timeout = timeouts.get(cycles)
                if timeout is None:
                    timeout = timeouts[cycles] = Timeout(cycles * clock_ns)
                yield timeout
            try:
                # Register-only instructions return the _NO_YIELDS
                # sentinel from a plain call; only memory-touching ones
                # pay for a generator delegation.
                step = instr.execute(self)
                if step is not _NO_YIELDS:
                    yield from step
            except PageFault as fault:
                if self.fault_handler is None:
                    raise
                yield from self.fault_handler(self, fault)
                continue  # restart the faulting instruction
            if instr.counts:
                self.counts.on_retire()
                self.cycles_retired += cycles
            context.pc = (
                self._jump_target if self._jump_target is not None
                else context.pc + 1
            )

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_restore(self, state):
        self._jump_target = None
        self._pending_interrupts = []
        self._preempt = False
        super().ckpt_restore(state)

    def run_to_halt(self, program, context=None):
        """Generator: convenience wrapper running one program to completion.

        Returns the finished context.
        """
        if context is None:
            context = Context()
        result = yield from self.run_slice(program, context, max_ns=None)
        assert result == "halt"
        return context

"""Tests for the task-loop runner."""

import pytest

from repro.governors.base import Decision, Governor, JobContext
from repro.governors.interactive import InteractiveGovernor
from repro.governors.performance import PerformanceGovernor
from repro.governors.powersave import PowersaveGovernor
from repro.platform.board import Board
from repro.platform.jitter import LogNormalJitter
from repro.platform.opp import default_xu3_a7_table
from repro.programs.expr import Const, Var
from repro.programs.interpreter import Interpreter
from repro.programs.ir import Assign, Block, Loop, Program, Seq
from repro.runtime.executor import IDLE_MIN_GAP_S, TaskLoopRunner
from repro.runtime.task import Task

OPPS = default_xu3_a7_table()


def fixed_program(cycles=14e6):
    """A job with constant work: exactly ``cycles`` frequency-scaled cycles."""
    return Program("fixed", Block(cycles))  # CPI = 1 -> cycles == instructions


def loopy_program():
    """Work proportional to input ``n`` (4000 instr per unit of n)."""
    return Program("loopy", Loop("l", Var("n"), Block(3998)))


def stateful_program():
    return Program(
        "stateful",
        Seq([Block(1000), Assign("turn", Var("turn") + Const(1))]),
        globals_init={"turn": 0},
    )


class FixedGovernor(Governor):
    """Test helper: always requests one specific level."""

    timer_period_s = None

    def __init__(self, opp):
        self.opp = opp

    @property
    def name(self) -> str:
        return "fixed"

    def decide(self, ctx):
        if ctx.board.current_opp.index != self.opp.index:
            return Decision(self.opp)
        return None


def run_task(
    program,
    governor,
    inputs,
    budget_s=0.050,
    board=None,
    **runner_kwargs,
):
    board = board if board is not None else Board()
    runner = TaskLoopRunner(
        board,
        Task(program.name, program, budget_s),
        governor,
        inputs,
        **runner_kwargs,
    )
    return runner.run(), board


class TestBasicExecution:
    def test_requires_inputs(self):
        with pytest.raises(ValueError):
            TaskLoopRunner(
                Board(),
                Task("t", fixed_program(), 0.05),
                PerformanceGovernor(OPPS),
                [],
            )

    def test_job_count_matches_inputs(self):
        result, _ = run_task(
            fixed_program(), PerformanceGovernor(OPPS), [{}] * 7
        )
        assert result.n_jobs == 7

    def test_exec_time_matches_model(self):
        result, _ = run_task(fixed_program(14e6), PerformanceGovernor(OPPS), [{}])
        # 14M cycles at 1400 MHz = 10 ms.
        assert result.jobs[0].exec_time_s == pytest.approx(0.010)

    def test_jobs_released_periodically(self):
        result, _ = run_task(
            fixed_program(), PerformanceGovernor(OPPS), [{}] * 3, budget_s=0.05
        )
        arrivals = [j.arrival_s for j in result.jobs]
        assert arrivals == pytest.approx([0.0, 0.05, 0.10])

    def test_no_misses_with_plenty_of_budget(self):
        result, _ = run_task(
            fixed_program(), PerformanceGovernor(OPPS), [{}] * 5
        )
        assert result.n_missed == 0

    def test_miss_detected_when_infeasible(self):
        # 140M cycles = 100 ms at fmax; budget 50 ms.
        result, _ = run_task(
            fixed_program(140e6), PerformanceGovernor(OPPS), [{}] * 2
        )
        assert result.miss_rate == 1.0

    def test_energy_accumulates(self):
        result, _ = run_task(
            fixed_program(), PerformanceGovernor(OPPS), [{}] * 5
        )
        assert result.energy_j > 0
        assert result.energy_by_tag["job"] > 0
        assert result.energy_by_tag["idle"] > 0

    def test_result_metadata(self):
        result, _ = run_task(fixed_program(), PerformanceGovernor(OPPS), [{}])
        assert result.governor == "performance"
        assert result.app == "fixed"
        assert result.budget_s == 0.05


class TestFrequencyEffects:
    def test_low_frequency_stretches_jobs(self):
        fast, _ = run_task(fixed_program(), FixedGovernor(OPPS.fmax), [{}] * 3)
        slow, _ = run_task(fixed_program(), FixedGovernor(OPPS.fmin), [{}] * 3)
        assert slow.jobs[-1].exec_time_s > fast.jobs[-1].exec_time_s * 5

    def test_low_frequency_saves_energy(self):
        fast, _ = run_task(fixed_program(), FixedGovernor(OPPS.fmax), [{}] * 5)
        slow, _ = run_task(fixed_program(), FixedGovernor(OPPS.fmin), [{}] * 5)
        assert slow.energy_j < fast.energy_j

    def test_powersave_misses_heavy_jobs(self):
        # 28M cycles: 20 ms at fmax, 140 ms at fmin -> misses at fmin only.
        fast, _ = run_task(
            fixed_program(28e6), PerformanceGovernor(OPPS), [{}] * 3
        )
        slow, _ = run_task(
            fixed_program(28e6), PowersaveGovernor(OPPS), [{}] * 3
        )
        assert fast.n_missed == 0
        assert slow.n_missed == 3

    def test_switch_time_recorded(self):
        result, board = run_task(
            fixed_program(), FixedGovernor(OPPS.fmin), [{}] * 2
        )
        assert result.jobs[0].switch_time_s > 0
        assert result.switch_count == 1  # only the first job switches

    def test_uncharged_switch_is_instant(self):
        result, board = run_task(
            fixed_program(),
            FixedGovernor(OPPS.fmin),
            [{}] * 2,
            charge_switch=False,
        )
        assert result.jobs[0].switch_time_s == 0.0
        assert board.current_opp == OPPS.fmin
        assert result.switch_count == 1  # still counted as a transition


class TestStateEvolution:
    def test_globals_advance_once_per_job(self):
        program = stateful_program()
        board = Board()
        runner = TaskLoopRunner(
            board,
            Task("stateful", program, 0.05),
            PerformanceGovernor(OPPS),
            [{}] * 6,
        )
        runner.run()
        # The runner commits exactly one state update per job; peek via a
        # fresh isolated execution.
        final = Interpreter().execute_isolated(program, {}, {"turn": 0})
        assert final.env["turn"] == 1  # sanity of the probe itself

    def test_input_dependent_work(self):
        result, _ = run_task(
            loopy_program(),
            PerformanceGovernor(OPPS),
            [{"n": 1000}, {"n": 5000}, {"n": 2000}],
        )
        times = result.exec_times_s
        assert times[1] > times[0]
        assert times[1] > times[2]


class TestIdling:
    def test_idling_reduces_energy_for_performance(self):
        inputs = [{}] * 10
        plain, _ = run_task(
            fixed_program(28e6), PerformanceGovernor(OPPS), inputs
        )
        idled, _ = run_task(
            fixed_program(28e6),
            PerformanceGovernor(OPPS),
            inputs,
            idle=True,
        )
        assert idled.energy_j < plain.energy_j

    def test_idling_does_not_cause_misses_for_performance(self):
        result, _ = run_task(
            fixed_program(28e6),
            PerformanceGovernor(OPPS),
            [{}] * 10,
            idle=True,
        )
        assert result.n_missed == 0

    def test_idling_restores_level_for_opinionless_governor(self):
        """After an idle dip to fmin the pre-idle level is restored when
        the governor has no explicit decision."""

        class OneShot(Governor):
            timer_period_s = None

            def __init__(self):
                self.decisions = 0

            @property
            def name(self):
                return "oneshot"

            def decide(self, ctx):
                self.decisions += 1
                if self.decisions == 1:
                    return Decision(OPPS[6])
                return None  # no opinion afterwards

        result, board = run_task(
            fixed_program(1e6),
            OneShot(),
            [{}] * 3,
            idle=True,
        )
        # Level 6 was restored after each idle dip (not left at fmin).
        assert board.current_opp.index == 6
        assert result.jobs[-1].opp_mhz == OPPS[6].freq_mhz

    def test_idling_off_never_dips(self):
        # ~20 ms jobs in a 50 ms period leave 30 ms gaps, but idling is
        # off by default.
        result, _ = run_task(
            fixed_program(28e6), PerformanceGovernor(OPPS), [{}] * 10
        )
        assert result.switch_count == 0

    def test_idle_dips_between_jobs_not_during_them(self):
        # ~20 ms jobs leave 30 ms gaps: each gap dips to fmin, yet every
        # job still runs at the governor's fmax.
        result, _ = run_task(
            fixed_program(28e6),
            PerformanceGovernor(OPPS),
            [{}] * 10,
            idle=True,
        )
        assert result.switch_count > 0
        assert all(j.opp_mhz == OPPS.fmax.freq_mhz for j in result.jobs)

    @pytest.mark.parametrize(
        "gap_s, idles",
        [(IDLE_MIN_GAP_S + 0.001, True), (IDLE_MIN_GAP_S - 0.001, False)],
        ids=["over", "under"],
    )
    def test_min_gap_threshold(self, gap_s, idles):
        # Size the job so that it leaves ``gap_s`` of its 50 ms period
        # at fmax (CPI = 1, so cycles == seconds * Hz).
        cycles = (0.050 - gap_s) * OPPS.fmax.freq_hz
        result, _ = run_task(
            fixed_program(cycles),
            PerformanceGovernor(OPPS),
            [{}] * 4,
            idle=True,
        )
        assert (result.switch_count > 0) is idles

    def test_short_gaps_not_idled(self):
        # Jobs take ~49 ms of a 50 ms budget: gap ~1 ms < IDLE_MIN_GAP_S.
        result, board = run_task(
            fixed_program(68e6),
            PerformanceGovernor(OPPS),
            [{}] * 4,
            idle=True,
        )
        assert result.switch_count == 0


class TestTimers:
    def test_interactive_scales_down_on_light_load(self):
        # 1.4M cycles = 1 ms at fmax in a 50 ms period: utilization ~2%.
        result, board = run_task(
            fixed_program(1.4e6), InteractiveGovernor(OPPS), [{}] * 30
        )
        assert board.current_opp.freq_hz < OPPS.fmax.freq_hz
        late = [j for j in result.jobs if j.arrival_s > 0.3]
        assert all(j.opp_mhz < 1400 for j in late)

    def test_interactive_sprints_on_heavy_load(self):
        """Saturating load pushes it to fmax (it may later oscillate down:
        at fmax the load looks light again — classic interactive-governor
        hysteresis, not a bug)."""
        board = Board(initial_opp=OPPS.fmin)
        result, board = run_task(
            fixed_program(30e6),
            InteractiveGovernor(OPPS),
            [{}] * 20,
            board=board,
        )
        assert any(j.opp_mhz == OPPS.fmax.freq_mhz for j in result.jobs)

    def test_interactive_misses_when_scaled_too_low(self):
        """The deadline-blindness the paper exploits: utilization-driven
        scaling can miss deadlines on bursty work."""
        inputs = []
        for i in range(40):
            inputs.append({"n": 12000 if i % 8 == 7 else 400})
        result, _ = run_task(loopy_program(), InteractiveGovernor(OPPS), inputs)
        assert result.n_missed > 0

    def test_timer_fires_during_idle(self):
        board = Board()
        gov = InteractiveGovernor(OPPS, input_boost=False)
        result, board = run_task(
            fixed_program(1.4e6), gov, [{}] * 30, board=board
        )
        # After ~1.5 s of near-idle the governor must have ratcheted down.
        assert board.current_opp.index <= 1

    def test_input_boost_raises_frequency_at_job_start(self):
        board = Board(initial_opp=OPPS.fmin)
        gov = InteractiveGovernor(OPPS)
        result, board = run_task(
            fixed_program(1.4e6), gov, [{}] * 5, board=board
        )
        assert result.jobs[0].opp_mhz == gov.hispeed_opp.freq_mhz


class TestJitterIntegration:
    def test_jittered_exec_times_vary(self):
        board = Board(jitter=LogNormalJitter(0.05, seed=11))
        result, _ = run_task(
            fixed_program(), PerformanceGovernor(OPPS), [{}] * 10, board=board
        )
        assert len(set(result.exec_times_s)) > 1

    def test_deterministic_given_seed(self):
        def once():
            board = Board(jitter=LogNormalJitter(0.05, seed=11))
            result, _ = run_task(
                fixed_program(),
                PerformanceGovernor(OPPS),
                [{}] * 10,
                board=board,
            )
            return result.energy_j, result.exec_times_s

        assert once() == once()


class RetargetOnce(Governor):
    """Test helper: jumps to fmax at the first utilization sample."""

    timer_period_s = 0.004

    def __init__(self, opps):
        self.opps = opps
        self.fired = 0

    @property
    def name(self) -> str:
        return "retarget-once"

    def decide(self, ctx):
        return None

    def on_timer(self, now_s, utilization):
        self.fired += 1
        if self.fired == 1:
            return self.opps.fmax
        return None


class TestMidJobRetargeting:
    """A utilization-timer retarget mid-job re-times the remaining work.

    One 14e6-cycle job starts at fmin (200 MHz, would take 70 ms) and is
    retargeted to fmax (1400 MHz) at the 4 ms timer, so the analytic
    execution time is ``0.004 + (1 - 0.004/0.070) * 0.010`` seconds —
    and the cycles spent at each level must still sum to the job's work.
    """

    T_FMIN = 14e6 / 200e6
    T_FMAX = 14e6 / 1400e6

    def run_retargeted(self, **runner_kwargs):
        board = Board(initial_opp=OPPS.fmin)
        return run_task(
            fixed_program(14e6),
            RetargetOnce(OPPS),
            [{}],
            board=board,
            charge_switch=False,
            **runner_kwargs,
        )

    def test_exec_time_matches_analytic_split(self):
        result, _ = self.run_retargeted()
        done_at_retarget = 0.004 / self.T_FMIN
        expected = 0.004 + (1 - done_at_retarget) * self.T_FMAX
        assert result.jobs[0].exec_time_s == pytest.approx(expected)
        # Far faster than staying at fmin, slower than pure fmax.
        assert self.T_FMAX < result.jobs[0].exec_time_s < self.T_FMIN

    def test_job_record_keeps_final_frequency(self):
        result, board = self.run_retargeted()
        assert board.current_opp == OPPS.fmax

    def test_work_is_conserved_across_the_retarget(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        self.run_retargeted(telemetry=telemetry)
        counters = telemetry.metrics.as_dict()["counters"]
        residency = {
            name.split("[")[1].rstrip("]"): value
            for name, value in counters.items()
            if name.startswith("executor.residency_s[")
        }
        assert set(residency) == {"200", "1400"}
        assert residency["200"] == pytest.approx(0.004)
        cycles = sum(
            seconds * float(mhz) * 1e6 for mhz, seconds in residency.items()
        )
        assert cycles == pytest.approx(14e6)
        assert counters["executor.timer_retargets"] == 1

    def test_retarget_emits_instant_event(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        self.run_retargeted(telemetry=telemetry)
        retargets = [
            e for e in telemetry.events if e.name == "timer.retarget"
        ]
        assert len(retargets) == 1
        assert retargets[0].ts_s == pytest.approx(0.004)
        assert retargets[0].args["to_mhz"] == OPPS.fmax.freq_mhz


class CountingInterpreter(Interpreter):
    """Counts task-program interpretations (slices run elsewhere)."""

    def __init__(self):
        super().__init__()
        self.runs = 0

    def execute(self, program, inputs, globals_=None):
        self.runs += 1
        return super().execute(program, inputs, globals_)

    def execute_isolated(self, program, inputs, globals_):
        self.runs += 1
        return super().execute_isolated(program, inputs, globals_)


class OracleWitness(FixedGovernor):
    """Runs at one level and records the oracle work it was handed."""

    def __init__(self, opp):
        super().__init__(opp)
        self.oracle_work = []

    def decide(self, ctx):
        self.oracle_work.append(ctx.oracle_work)
        return super().decide(ctx)


def ticketed_program():
    """Impure on purpose: each interpretation draws fresh tickets.

    Running a job's program more than once is then observable, in the
    work (the loop's trip count) and in the committed globals.
    """
    from tests.programs.test_compiled import Ticket

    ticket = Ticket()
    return Program(
        "ticketed",
        Seq(
            [
                Assign("seen", Var("seen") + ticket),
                Loop("work", ticket, Block(1000, 2.0), max_trips=10_000),
            ]
        ),
        globals_init={"seen": 0},
    )


class TestOneInterpretationPerJob:
    @pytest.mark.parametrize("oracle", [False, True])
    def test_task_program_runs_once_per_job(self, oracle):
        interpreter = CountingInterpreter()
        run_task(
            stateful_program(),
            OracleWitness(OPPS.fmax),
            [{}] * 6,
            interpreter=interpreter,
            provide_oracle_work=oracle,
        )
        assert interpreter.runs == 6

    def test_oracle_work_is_the_executed_work(self, monkeypatch):
        executed = []
        original = TaskLoopRunner._execute_work

        def spy(self, work, *args, **kwargs):
            executed.append(work)
            return original(self, work, *args, **kwargs)

        monkeypatch.setattr(TaskLoopRunner, "_execute_work", spy)
        governor = OracleWitness(OPPS.fmax)
        run_task(
            ticketed_program(), governor, [{}] * 5, provide_oracle_work=True
        )
        assert governor.oracle_work == executed
        assert len(executed) == 5

    def test_live_globals_equal_sequential_reference_runs(self):
        from repro.programs.interpreter import ReferenceInterpreter

        board = Board()
        program = ticketed_program()
        runner = TaskLoopRunner(
            board,
            Task(program.name, program, 0.050),
            OracleWitness(OPPS.fmax),
            [{}] * 7,
        )
        runner.run()
        reference = ticketed_program()
        globals_ = reference.fresh_globals()
        for _ in range(7):
            ReferenceInterpreter().execute(reference, {}, globals_)
        assert runner._task_globals == globals_ == {"seen": 49}

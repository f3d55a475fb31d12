"""Per-rule fixture tests: one failing and one passing snippet per code.

Each fixture is linted with a synthetic *logical path* (``repro/...``) so
the rule's scope patterns fire exactly as they do on the real tree.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import all_rules, lint_source


def codes(source: str, path: str) -> list:
    return [v.code for v in lint_source(textwrap.dedent(source), path)]


def test_registry_has_all_documented_rules():
    registered = [rule.code for rule in all_rules()]
    assert registered == sorted(registered)
    assert len(registered) >= 10
    for rule in all_rules():
        assert rule.name and rule.rationale
        # Flow rules are whole-program: no per-file scope by design.
        assert rule.paths or getattr(rule, "is_flow_rule", False)


# -- NF001: module-level RNG --------------------------------------------------

def test_nf001_flags_module_level_random_call():
    assert "NF001" in codes(
        """
        import random
        jitter = random.random()
        """,
        "repro/core/quota.py",
    )


def test_nf001_flags_importing_module_rng_functions():
    assert "NF001" in codes(
        "from random import randint, shuffle\n", "repro/simulator/queues.py"
    )


def test_nf001_passes_seeded_instance_rng():
    assert "NF001" not in codes(
        """
        from random import Random
        from repro.seeding import derive_seed
        rng = Random(derive_seed(1, "queue"))
        jitter = rng.random()
        """,
        "repro/simulator/queues.py",
    )


# -- NF002: wall clock outside runtime ---------------------------------------

def test_nf002_flags_wall_clock_in_simulation_layer():
    source = """
    import time
    def stamp():
        return time.time()
    """
    assert "NF002" in codes(source, "repro/core/access.py")


def test_nf002_allows_wall_clock_in_runtime_layer():
    source = """
    import time
    def stamp():
        return time.monotonic()
    """
    assert "NF002" not in codes(source, "repro/runtime/clock.py")


def test_nf002_passes_injected_clock_reads():
    assert "NF002" not in codes(
        """
        def stamp(clock):
            return clock.now
        """,
        "repro/core/access.py",
    )


# -- NF003: .sim in seam layers ----------------------------------------------

def test_nf003_flags_sim_attribute_in_core():
    assert "NF003" in codes(
        "def f(router):\n    return router.sim.now\n", "repro/core/bottleneck.py"
    )


def test_nf003_allows_sim_attribute_in_simulator_layer():
    assert "NF003" not in codes(
        "def f(topo):\n    return topo.sim.now\n", "repro/simulator/topology.py"
    )


def test_nf003_passes_injected_clock():
    assert "NF003" not in codes(
        "def f(router):\n    return router.clock.now\n", "repro/core/bottleneck.py"
    )


# -- NF004: hand-rolled quantize ---------------------------------------------

def test_nf004_flags_hand_rolled_microsecond_conversion():
    found = codes("us = int(ts * 1e6)\n", "repro/runtime/codec.py")
    assert found.count("NF004") == 1  # int() + BinOp must not double-report


def test_nf004_flags_bare_division_unquantize():
    assert "NF004" in codes("seconds = us / 1e6\n", "repro/runtime/codec.py")


def test_nf004_passes_canonical_helpers_and_mac_module():
    assert "NF004" not in codes(
        """
        from repro.crypto.mac import quantize_ts
        us = quantize_ts(ts)
        """,
        "repro/runtime/codec.py",
    )
    # mac.py *is* the canonical implementation; the rule must not flag it.
    assert "NF004" not in codes("us = int(ts * 1e6)\n", "repro/crypto/mac.py")


# -- NF005: hot-path dataclass slots -----------------------------------------

def test_nf005_flags_unslotted_hot_path_dataclass():
    source = """
    from dataclasses import dataclass

    @dataclass
    class Header:
        priority: int = 0
    """
    assert "NF005" in codes(source, "repro/simulator/packet.py")


def test_nf005_passes_slotted_dataclass_and_cold_modules():
    slotted = """
    from dataclasses import dataclass

    @dataclass(slots=True)
    class Header:
        priority: int = 0
    """
    assert "NF005" not in codes(slotted, "repro/simulator/packet.py")
    unslotted = slotted.replace("(slots=True)", "")
    assert "NF005" not in codes(unslotted, "repro/experiments/sweep.py")


# -- NF006: hot-path copies ---------------------------------------------------

def test_nf006_flags_dataclasses_replace_on_packet_path():
    source = """
    import dataclasses
    def bump(header):
        return dataclasses.replace(header, priority=1)
    """
    assert "NF006" in codes(source, "repro/core/header.py")


def test_nf006_flags_bare_imported_deepcopy():
    source = """
    from copy import deepcopy
    def clone(packet):
        return deepcopy(packet)
    """
    assert "NF006" in codes(source, "repro/simulator/packet.py")


@pytest.mark.parametrize("module", [
    "repro/runtime/codec.py", "repro/runtime/serve.py", "repro/crypto/mac.py"])
def test_nf006_covers_the_live_per_datagram_path(module):
    source = """
    import dataclasses
    def restamp(feedback, mac):
        return dataclasses.replace(feedback, mac=mac)
    """
    assert "NF006" in codes(source, module)
    assert "NF006" not in codes(source, "repro/runtime/loadgen.py")


def test_nf006_allows_replace_in_setup_modules():
    source = """
    import dataclasses
    def with_overrides(params, **kw):
        return dataclasses.replace(params, **kw)
    """
    assert "NF006" not in codes(source, "repro/core/params.py")


# -- NF007: schedule_fast handle ---------------------------------------------

def test_nf007_flags_storing_schedule_fast_result():
    assert "NF007" in codes(
        "handle = sim.schedule_fast(0.1, poke)\n", "repro/simulator/link.py"
    )


def test_nf007_flags_returning_schedule_fast_result():
    source = """
    def arm(sim, poke):
        return sim.schedule_fast(0.1, poke)
    """
    assert "NF007" in codes(source, "repro/simulator/link.py")


def test_nf007_passes_fire_and_forget_and_real_schedule():
    source = """
    def arm(sim, poke):
        sim.schedule_fast(0.1, poke)
        handle = sim.schedule(0.1, poke)
        return handle
    """
    assert "NF007" not in codes(source, "repro/simulator/link.py")


# -- NF008: reset parity ------------------------------------------------------

def test_nf008_flags_reset_missing_an_init_attribute():
    source = """
    class Meter:
        def __init__(self):
            self.count = 0
            self.tap = None

        def reset(self):
            self.count = 0
    """
    found = lint_source(textwrap.dedent(source), "repro/simulator/meter.py")
    nf008 = [v for v in found if v.code == "NF008"]
    assert len(nf008) == 1
    assert "tap" in nf008[0].message


def test_nf008_passes_full_reset_inplace_and_helper_restores():
    source = """
    class Meter:
        def __init__(self):
            self.count = 0
            self.flows = {}
            self.limit = 10

        def _rearm(self):
            self.limit = 10

        def reset(self):
            self.count = 0
            self.flows.clear()
            self._rearm()
    """
    assert "NF008" not in codes(source, "repro/simulator/meter.py")


def test_nf008_passes_reset_that_delegates_to_init():
    source = """
    class Meter:
        def __init__(self):
            self.count = 0
            self.tap = None

        def reset(self):
            self.__init__()
    """
    assert "NF008" not in codes(source, "repro/simulator/meter.py")


# -- NF009: blocking calls in async -------------------------------------------

def test_nf009_flags_time_sleep_inside_async_def():
    source = """
    import time
    async def drain():
        time.sleep(0.5)
    """
    assert "NF009" in codes(source, "repro/runtime/serve.py")


def test_nf009_flags_imported_alias():
    source = """
    from time import sleep
    async def drain():
        sleep(0.5)
    """
    assert "NF009" in codes(source, "repro/runtime/serve.py")


def test_nf009_passes_asyncio_sleep_and_sync_contexts():
    okay = """
    import asyncio
    async def drain():
        await asyncio.sleep(0.5)
    """
    assert "NF009" not in codes(okay, "repro/runtime/serve.py")
    sync = """
    import time
    def blocking_is_fine_outside_async():
        time.sleep(0.5)
    """
    assert "NF009" not in codes(sync, "repro/runtime/serve.py")


# -- NF010: silent excepts -----------------------------------------------------

def test_nf010_flags_bare_except():
    source = """
    try:
        work()
    except:
        pass
    """
    assert "NF010" in codes(source, "repro/experiments/sweep.py")


def test_nf010_flags_broad_silent_except():
    source = """
    try:
        work()
    except Exception:
        pass
    """
    assert "NF010" in codes(source, "repro/experiments/sweep.py")


def test_nf010_passes_specific_or_recorded_exceptions():
    source = """
    try:
        work()
    except ValueError:
        pass
    try:
        work()
    except Exception as exc:
        errors.append(exc)
    """
    assert "NF010" not in codes(source, "repro/experiments/sweep.py")


# -- NF011: unseeded RNG -------------------------------------------------------

def test_nf011_flags_unseeded_random_construction():
    assert "NF011" in codes(
        "import random\nrng = random.Random()\n", "repro/simulator/queues.py"
    )
    assert "NF011" in codes(
        "from random import Random\nrng = Random()\n", "repro/simulator/queues.py"
    )


def test_nf011_passes_seeded_construction():
    assert "NF011" not in codes(
        "import random\nrng = random.Random(42)\n", "repro/simulator/queues.py"
    )


# -- NF012: unsafe deserialization --------------------------------------------

def test_nf012_flags_pickle_and_eval_at_wire_boundary():
    source = """
    import pickle
    def decode(data):
        return pickle.loads(data)
    """
    assert "NF012" in codes(source, "repro/runtime/codec.py")
    assert "NF012" in codes(
        "def decode(data):\n    return eval(data)\n", "repro/runtime/codec.py"
    )


def test_nf012_allows_pickle_outside_wire_layers():
    # The sweep cache pickles *its own* results; only wire/crypto layers
    # face attacker bytes.
    source = """
    import pickle
    def load(path):
        with open(path, "rb") as fh:
            return pickle.load(fh)
    """
    assert "NF012" not in codes(source, "repro/experiments/sweep.py")


# -- NF013: constant-time MAC compare ------------------------------------------

def test_nf013_flags_equality_on_mac_material():
    assert "NF013" in codes(
        "def verify(mac, expected_mac):\n    return mac == expected_mac\n",
        "repro/crypto/mac2.py",
    )


def test_nf013_allows_presence_checks_and_mac_equal():
    source = """
    from repro.crypto.mac import mac_equal
    def verify(mac, expected_mac):
        if mac == b"":
            return False
        return mac_equal(mac, expected_mac)
    """
    assert "NF013" not in codes(source, "repro/crypto/mac2.py")


def test_nf013_out_of_scope_outside_security_layers():
    assert "NF013" not in codes(
        "def f(mac, other_mac):\n    return mac == other_mac\n",
        "repro/analysis/metrics.py",
    )


# -- NF014: assert guards ------------------------------------------------------

def test_nf014_flags_assert_in_runtime():
    assert "NF014" in codes(
        "def check(x):\n    assert x is not None\n", "repro/runtime/serve.py"
    )


def test_nf014_passes_explicit_raise_and_non_security_layers():
    assert "NF014" not in codes(
        """
        def check(x):
            if x is None:
                raise RuntimeError("missing")
        """,
        "repro/runtime/serve.py",
    )
    assert "NF014" not in codes(
        "def check(x):\n    assert x\n", "repro/simulator/engine.py"
    )


# -- NF015: print outside CLI entry points ------------------------------------

def test_nf015_flags_print_in_library_code():
    assert "NF015" in codes(
        """
        def deliver(packet):
            print("delivered", packet)
        """,
        "repro/core/bottleneck.py",
    )
    assert "NF015" in codes(
        'print("module import side effect")\n', "repro/simulator/queues.py"
    )


def test_nf015_flags_print_in_nested_helper_of_cli():
    # A helper *defined inside* cli_main is still CLI surface; one defined
    # beside it is not.
    assert "NF015" in codes(
        """
        def _format(rows):
            print(rows)

        def cli_main(argv=None):
            _format([])
            return 0
        """,
        "repro/experiments/runner.py",
    )


def test_nf015_passes_cli_entry_points():
    assert "NF015" not in codes(
        """
        def main(argv=None):
            print("report")

        def cli_main(argv=None):
            def emit(line):
                print(line)
            emit("ok")
            return 0

        def _cmd_status(args):
            print("queue empty")
        """,
        "repro/experiments/distrib.py",
    )


def test_nf015_out_of_scope_outside_repro():
    assert "NF015" not in codes(
        'print("scratch")\n', "scripts/scratch.py"
    )


# -- NF016: stdlib logging outside repro.obs.log -------------------------------

def test_nf016_flags_getlogger_and_root_logger_in_library_code():
    assert "NF016" in codes(
        "import logging\nlogger = logging.getLogger(__name__)\n",
        "repro/core/bottleneck.py",
    )
    assert "NF016" in codes(
        """
        import logging

        def deliver(packet):
            logging.warning("dropped %s", packet)
        """,
        "repro/runtime/policer.py",
    )
    assert "NF016" in codes(
        "import logging\nlogging.basicConfig(level=10)\n",
        "repro/experiments/sweep.py",
    )


def test_nf016_passes_obs_log_and_cli_entry_points():
    # repro.obs.log is the sanctioned bridge between stdlib logging and the
    # structured stream; CLI entry points may configure logging for a run.
    assert "NF016" not in codes(
        "import logging\nhandler_home = logging.getLogger('repro')\n",
        "repro/obs/log.py",
    )
    assert "NF016" not in codes(
        """
        import logging

        def cli_main(argv=None):
            logging.basicConfig(level=logging.INFO)
            return 0

        def _cmd_worker(args):
            logging.getLogger("worker").setLevel(logging.DEBUG)
        """,
        "repro/experiments/distrib.py",
    )


def test_nf016_out_of_scope_outside_repro():
    assert "NF016" not in codes(
        "import logging\nlogging.info('scratch')\n", "scripts/scratch.py"
    )


# -- select/ignore plumbing ----------------------------------------------------

def test_select_and_ignore_filter_rules():
    source = (
        "import random\n"
        "jitter = random.random()\n"
        "handle = sim.schedule_fast(jitter, poke)\n"
    )
    path = "repro/simulator/link.py"
    assert {"NF001", "NF007"} <= set(codes(source, path))
    only = lint_source(source, path, select=["NF007"])
    assert {v.code for v in only} == {"NF007"}
    without = lint_source(source, path, ignore=["NF007"])
    assert "NF007" not in {v.code for v in without}


def test_unknown_codes_raise():
    with pytest.raises(KeyError):
        lint_source("x = 1\n", "repro/core/x.py", select=["NF999"])

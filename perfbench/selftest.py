"""Self-test of the benchmark harness: every workload once at a tiny size,
untraced and traced.

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the output checks pass with no failed seller query, that the untraced
run installs no wrappers, and that in the traced run the layers account for
each round: the part of the round's root span that no traced layer claims is
a small share of it, and the root span matches the round time the harness
measured.
"""

import json
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# Slack between a round's measured time and its root span: the wrapper call,
# and a garbage collection that may run inside it.
ROOT_SPAN_SLACK_S = 5e-3
# Largest share of a traced round that may lie outside every traced layer:
# the round function's own glue (the report's str-to-bytes encoding, stdout
# redirection) and the root wrapper.
UNCLAIMED_SHARE = 0.01


def main(execute) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok, what):
        print(f"self-test {'ok' if ok else 'FAILED'}: {what}")
        if not ok:
            problems.append(what)

    expect({w["name"]: w["why"] for w in spec["workloads"]}
           == {name: cls.why for name, cls in WORKLOADS.items()},
           "BENCHMARK.json lists exactly the workloads the harness runs, with their reasons")
    for name in WORKLOADS:
        for trace in (0, 1):
            run = execute(name, 7, 0.2, trace, tiny=True)
            label = f"{name} trace {trace}"
            got = {k: v["unit"] for k, v in run["metrics"].items()}
            expect(got == expected[trace], f"{label}: every named metric, with its unit")
            bad = [c["name"] for c in run["checks"] if not c["ok"]]
            expect(not bad, f"{label}: output checks pass {bad or ''}")
            expect(run["failed"] == 0 and run["attempted"] > 0,
                   f"{label}: {run['failed']} of {run['attempted']} seller queries failed")
            expect(any(c["name"] == "untraced_run_installs_no_wrappers" and c["ok"]
                       for c in run["checks"]), f"{label}: untraced rounds install no wrappers")
            if not trace:
                continue
            per_trace = run["per_trace"]
            expect(len(per_trace) == len(run["traced_times"]),
                   f"{label}: one trace id per traced round")
            unclaimed = max(t["root_self_s"] / t["root_s"] for t in per_trace.values())
            expect(unclaimed <= UNCLAIMED_SHARE,
                   f"{label}: traced layers account for the round, at most "
                   f"{UNCLAIMED_SHARE:.0%} outside them (worst {unclaimed:.2%})")
            gaps = [elapsed - per_trace[i]["root_s"]
                    for i, elapsed in zip(sorted(per_trace), run["traced_times"])]
            expect(all(0.0 <= g <= ROOT_SPAN_SLACK_S for g in gaps),
                   f"{label}: round span within {ROOT_SPAN_SLACK_S} s of the measured round "
                   f"(worst {max(gaps):.1e} s)")
    print(f"self-test: {'FAILED ' + str(len(problems)) if problems else 'all passed'}")
    return 1 if problems else 0

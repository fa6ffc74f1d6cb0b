# Run the theorem registry over the default instance family, then demonstrate
# the failure-reporting path with a classifier fault: the affected checks fail
# with witnesses that replay under the same fault, and pass without it.

from collections import Counter

from latmod.harness import Fault, default_instances, list_checks, replay_violation, run_suite

instances = default_instances()
print(f"registry: {len(list_checks())} checks;"
      f" default family: {len(instances)} instances")

report = run_suite(instances)
counts = report.counts()
print(f"clean run: {counts['pass']} pass, {counts['fail']} fail,"
      f" {counts['skipped']} skipped")
skip_reasons = Counter(r.skip_reason for r in report.results if r.status == "skipped")
for reason, k in skip_reasons.most_common():
    print(f"  skipped ({reason}): {k}")

print("\ninjecting a fault that inverts the pseudo-primary classifier ...")
sample = [i for i in instances if i.name in ("zn-self-12", "zn-square-8")]
fault = Fault("pseudo_primary")
failures = run_suite(sample, fault=fault).failures()
print(f"faulted run: {len(failures)} failing (instance, check) pairs")
by_name = {i.name: i for i in sample}
shown = 0
for result in failures:
    for violation in result.violations[:1]:
        replays = replay_violation(by_name[result.instance], result.check_id, violation,
                                   fault=fault)
        print(f"  {result.instance} {result.check_id}: witness {violation}"
              f" -> replays={replays}")
        shown += 1
    if shown >= 4:
        break

print("\nwithout the fault:", "all-pass" if run_suite(sample).ok() else "still failing")

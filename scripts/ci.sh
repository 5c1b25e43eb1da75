#!/bin/sh
# Tier-1 CI gate: clean build, full test suite (library suites plus the
# end-to-end CLI smokes in test/test_cli.ml), the bench perf gate and
# its self-tests, a fault soak, the protocol check gate, the analyzer
# over the example policies, docs, and a tree-hygiene check that no
# build artifacts are tracked. Every claim about a JSON document is
# checked in OCaml, so no step depends on an optional tool.
set -eu

cd "$(dirname "$0")/.."
root="$PWD"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== wrapper gate: retired Proxy.query / receive_push must not return =="
# The unified client (Sdds_proxy.Client) replaced the per-deployment
# wrappers; a reappearing call site means a regression to the old API.
if grep -rnE 'Proxy\.query\b|receive_push' \
     --include='*.ml' --include='*.mli' lib bin bench test examples; then
  echo "error: retired Proxy.query / receive_push identifiers found" >&2
  exit 1
fi
echo "wrapper gate: clean"

echo "== bench smoke + perf-regression gate (E15..E23 vs BENCH_baseline.json) =="
# The smoke run writes BENCH_engine.json and gates its rows in memory.
# Each experiment's shape claims (the [specs] table in bench/main.ml:
# columns, tail retention 100%, error-free chaos phases, ...) must
# hold, and the compare against the committed baseline must find every
# baseline row and field, deterministic fields exact, simulated fields
# within 5%, wall-clock costs grown no more than SDDS_BENCH_WALL_TOL
# (default 75%; widen on slow shared runners). Regenerate the baseline
# with:  dune exec bench/main.exe -- --smoke E15 E16 E17 E18 E19 E20 \
#        E21 E22 E23 --update-baseline
dune exec bench/main.exe -- --smoke E15 E16 E17 E18 E19 E20 E21 E22 E23 \
  --baseline BENCH_baseline.json

echo "== perf gate self-tests: broken runs and bad input must not pass =="
# The gate is only trustworthy if it fails when fed a regression. Each
# case re-gates the smoke run's BENCH_engine.json (or a doctored copy)
# and expects the exit status given: 1 for a regression, 2 for input
# the gate refuses.
bench="$root/_build/default/bench/main.exe"
expect_exit() {
  want="$1"
  shift
  set +e
  "$@" >"$tmp/gate.out" 2>&1
  got=$?
  set -e
  if [ "$got" -ne "$want" ]; then
    echo "error: perf gate exited $got, want $want: $*" >&2
    cat "$tmp/gate.out" >&2
    exit 1
  fi
}
# A tripled ns/event breaks the wall-clock band. A 97% tail retention
# sits inside the simulated 5% band: only the E23 claim "tail keeps
# 100%" catches it.
for spec in ns_per_event=3 retention_pct=0.97; do
  expect_exit 1 "$bench" --compare-only --baseline BENCH_baseline.json \
    --inject-regression "$spec"
done
# A run that lost a baseline row (E22 churn) or field (E23 exemplar_ok).
mkdir "$tmp/churn" "$tmp/exemplar"
grep -v '"experiment": "E22", "phase": "churn"' BENCH_engine.json \
  >"$tmp/churn/BENCH_engine.json"
sed 's/, "exemplar_ok": true//' BENCH_engine.json \
  >"$tmp/exemplar/BENCH_engine.json"
for case in churn exemplar; do
  (cd "$tmp/$case" &&
    expect_exit 1 "$bench" --compare-only --baseline "$root/BENCH_baseline.json")
done
# E1 records no rows: promoting must refuse and write nothing, not copy
# the BENCH_engine.json an earlier run left behind.
expect_exit 2 "$bench" --smoke E1 --update-baseline --baseline "$tmp/promoted.json"
if [ -e "$tmp/promoted.json" ]; then
  echo "error: an empty run was promoted to a baseline" >&2
  exit 1
fi
# A tolerance that is not a positive number, or no file to compare.
expect_exit 2 env SDDS_BENCH_WALL_TOL=0,2 \
  "$bench" --compare-only --baseline BENCH_baseline.json
(cd "$tmp" &&
  expect_exit 2 "$bench" --compare-only --baseline "$root/BENCH_baseline.json")
echo "perf gate self-tests: every broken run tripped"

echo "== fault soak: fixed-seed lossy links must converge to the golden view =="
# End-to-end through the CLI: publish a store, take the fault-free view
# as golden, then serve the same query over fault-injecting links. Every
# run must exit 0 with stdout byte-identical to golden (the qcheck
# properties in test/test_fault.ml cover the randomized version; this
# pins a few deterministic seeds in CI).
soak="$tmp/soak"
mkdir "$soak"
dune exec bin/sdds_cli.exe -- keygen -o "$soak/pub" >/dev/null
dune exec bin/sdds_cli.exe -- keygen -o "$soak/alice" >/dev/null
dune exec bin/sdds_cli.exe -- publish examples/policies/clinical.xml \
  --store "$soak/store" --id clinical --publisher "$soak/pub.sk" \
  --rule "+, alice, //patient" --rule="-, alice, //ssn" \
  --grant "alice=$soak/alice.pk" >/dev/null
dune exec bin/sdds_cli.exe -- query --store "$soak/store" --id clinical \
  -s alice --key "$soak/alice.sk" >"$soak/golden.xml" 2>/dev/null
for spec in "seed=1,rate=0.3" "seed=2,rate=0.3" "seed=3,rate=0.3" "@3:tear"; do
  dune exec bin/sdds_cli.exe -- query --store "$soak/store" --id clinical \
    -s alice --key "$soak/alice.sk" --fault-spec "$spec" \
    >"$soak/out.xml" 2>"$soak/err.txt" || {
    echo "error: faulty query ($spec) failed" >&2
    cat "$soak/err.txt" >&2
    exit 1
  }
  cmp -s "$soak/golden.xml" "$soak/out.xml" || {
    echo "error: faulty query ($spec) changed the authorized view" >&2
    exit 1
  }
  echo "fault-spec $spec: view identical ($(tail -1 "$soak/err.txt"))"
done

echo "== protocol model check gate =="
# The checker must verify the production protocol clean to depth 12 and
# rediscover the PR 6 duplicate-final-frame hole on the preserved
# pre-fix fixture, as a minimized counterexample whose fault spec
# replays through the real stack.
dune exec bin/sdds_cli.exe -- check --depth 12
if check_out="$(dune exec bin/sdds_cli.exe -- check --model pre-fix --depth 12 2>&1)"; then
  echo "error: checker found no violation on the pre-fix fixture" >&2
  echo "$check_out" >&2
  exit 1
fi
echo "$check_out"
cex_spec="$(printf '%s\n' "$check_out" \
  | sed -n "s/.*--fault-spec '\([^']*\)'.*/\1/p" | head -1)"
if [ -z "$cex_spec" ]; then
  echo "error: pre-fix counterexample carries no replay spec" >&2
  exit 1
fi
case "$cex_spec" in
*duplicate-command*) ;;
*)
  echo "error: pre-fix counterexample is not the duplicate-frame hole: $cex_spec" >&2
  exit 1
  ;;
esac
# Soundness end-to-end: the counterexample schedule, replayed against the
# real FIXED stack via --fault-spec, must leave the authorized view
# byte-identical to golden.
dune exec bin/sdds_cli.exe -- query --store "$soak/store" --id clinical \
  -s alice --key "$soak/alice.sk" --fault-spec "$cex_spec" \
  >"$soak/cex.xml" 2>/dev/null || {
  echo "error: counterexample replay failed on the fixed stack" >&2
  exit 1
}
cmp -s "$soak/golden.xml" "$soak/cex.xml" || {
  echo "error: counterexample replay changed the authorized view" >&2
  exit 1
}
echo "protocol check: current clean at depth 12; pre-fix hole found,"
echo "  spec '$cex_spec' replays to the golden view on the fixed stack"

echo "== static policy analysis over examples/policies =="
for rules in examples/policies/*.rules; do
  base="${rules%.rules}"
  set -- --rules-file "$rules" --json
  [ -f "$base.schema" ] && set -- "$@" --schema "$base.schema"
  [ -f "$base.xml" ] && set -- "$@" --doc "$base.xml"
  out="$(dune exec bin/sdds_cli.exe -- analyze "$@")" || {
    echo "error: sdds analyze failed on $rules" >&2
    echo "$out" >&2
    exit 1
  }
  if printf '%s' "$out" | grep -q '"internal-error"'; then
    echo "error: analyzer internal error on $rules" >&2
    echo "$out" >&2
    exit 1
  fi
  echo "$rules: ok"
done

echo "== docs =="
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "odoc not installed; skipping dune build @doc"
fi

echo "== tree hygiene =="
if git ls-files | grep -q '^_build/'; then
  echo "error: _build/ artifacts are tracked in git" >&2
  git ls-files | grep '^_build/' | head >&2
  exit 1
fi

echo "CI OK"

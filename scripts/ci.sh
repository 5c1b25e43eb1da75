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

echo "== wrapper gate: retired identifiers must not return =="
# A pull request is served by Proxy.run on a local card, or over APDU by
# Proxy.Pool, the one terminal-side APDU driver, and Fleet; Client is the
# dissemination gateway only, with no backends, executor contract or
# synthesized wire counts of its own. Every front door reads the DSP
# through one Proxy.ticket and treats the card's key by one rule, with no
# private key refresh and no policy pinned on a pool stream after
# admission; Remote_card keeps only what it adds to Protocol. A node no
# rule reaches is denied: open world is the rule +/*, not a default sign.
# Stream_view is the one view builder (Reassembler.xml writes its events
# through Serializer's one writer, Reassembler.run rebuilds them with
# Dom.of_events, the one events-to-DOM builder), Output_codec sizes and
# codes whole streams only (an event's bytes depend on the stream before
# it), and the engine dispatches through Compile's tag ids, not the
# deleted per-tag site index. There is one cursor over the skip index
# (Reader.advance), not an item stream beside it. The tracer has one
# sampling mode (tail, by a Policy), and the ring's points per member and
# the fleet's probe count are constants. The store's grants are the one
# key directory (no PKI stand-in), SHA-256 the one cryptographic hash and
# Fnv.fnv1a64 the one other, and a fault spec is none, an @FRAME:KIND list
# or seed=,rate=[,kinds=] (no ramp, no time-phased segments). The
# metrics registry keeps one cell per metric name and nothing per
# request: a request-scoped component adds its counts to the scope's
# cells when it ends, and no component attaches cells of its own. The
# engine's suspension of determined subtrees changes no view, so it is
# not a mode. The card has one RAM check, at evaluation
# (Memory_exceeded); the analyzer's bound (sdds analyze --profile) is
# the static one, run before upload, so the card has no upload-time
# admission, and its cache budget is always a quarter of the profile's
# RAM. The card's RAM layout is named once, in lib/core (Sdds_core.Ram),
# which the card, the reader, the analyzer's bound and bench E5 compute
# through, and a verdict does not depend on what the cache holds. A
# reappearing name means a regression to the old API, a second request
# path, a second policy mode, a second builder, a per-event size, a
# second tag index, a second reader over the skip index, head sampling
# or a knob that no caller sets, a second DSP prelude or key rule, a
# second chain automaton, a second key directory, a second hash, a
# second fault grammar, a registry cell kept per request, suppression as
# a mode, a second RAM check on the card or an export that nothing
# calls.
if grep -rnE 'Proxy\.query\b|receive_push|Remote(_card)?\.(Client|Retry|Chain)\b|Proxy\.(ensure_key|refresh_key|stale_evidence)\b|Pool\.(session_state|pin)\b|Reassembler\.(create|feed|finish|buffered_nodes)\b|Stream_view\.buffered_nodes\b|Output_codec\.(encode|decode|encoded_size)\b|Compile\.(sites_for_tag|wildcard_sites|tag_known)\b|Reader\.(next|Elem|tag_possible|fold_items)\b|sample_1_in|probe_budget|vnodes|Direct_backend|Fleet_backend|backend_name|fleet_handle|request_apdu_frames|module type BACKEND|Client\.(query|serve|pooled|fleet)\b|default:(Sdds_core\.)?Rule\.|Sdds_dsp\.Pki|\bPki\.|Sdds_crypto\.Sha1|\bSha1\.|Schedule\.(concat|describe)\b|~ramp|Ring\.fnv1a64|attach_(counter|gauge|histogram)|[?~]suppress\b|preflight_depth|Card\.preflight\b|Rules_too_large|rules_too_large|[?~]cache_budget_bytes\b|Mux\.run\b|~extra\b|Sdds_soe\.Memory\b|\bMemory\.(create|alloc|release|record|record_bytes|used_bytes|peak_bytes|budget_bytes|headroom)\b|\bOut_of_memory\b|Slo\.to_json\b|Memory_bound\.fits\b|\bram_budget_bytes\b' \
     --include='*.ml' --include='*.mli' lib bin bench test examples; then
  echo "error: retired identifiers found (listed above); the comment over" \
    "this gate in scripts/ci.sh says why each is gone" >&2
  exit 1
fi
echo "wrapper gate: clean"

echo "== bench smoke + perf-regression gate (E14..E23 vs BENCH_baseline.json) =="
# The smoke run writes BENCH_engine.json and gates its rows in memory.
# Each experiment's shape claims (the [specs] table in bench/main.ml:
# columns, tail retention 100%, error-free chaos phases, ...) must
# hold, and the compare against the committed baseline must find every
# baseline row and field, deterministic fields exact, simulated fields
# within 5%, wall-clock costs grown no more than SDDS_BENCH_WALL_TOL
# (default 75%; widen on slow shared runners). Allocation (E14's minor
# words per event, E15's per request in process and over the pool,
# E16's per analysis) is deterministic and held exactly. Regenerate the
# baseline with:  dune exec bench/main.exe -- --smoke E14 E15 E16 E17 \
#        E18 E19 E20 E21 E22 E23 --update-baseline
dune exec bench/main.exe -- --smoke E14 E15 E16 E17 E18 E19 E20 E21 E22 E23 \
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
# 100%" catches it. 10% more minor words per event, per request (in
# process or over the pool) or per analysis breaks an exact allocation
# field.
for spec in ns_per_event=3 retention_pct=0.97 minor_words_per_event=1.1 \
  minor_words_per_request=1.1 pool_minor_words_per_request=1.1 \
  minor_words_per_analysis=1.1; do
  expect_exit 1 "$bench" --compare-only --baseline BENCH_baseline.json \
    --inject-regression "$spec"
done
# The injected value scales the baseline's, not this run's: a run made in
# a fast phase of the host (every ns/event at 0.4x the baseline) still
# trips when tripled, though 1.2x its baseline is inside the band.
mkdir "$tmp/fast"
awk 'match($0, /"ns_per_event": [0-9.]+/) {
  v = substr($0, RSTART + 16, RLENGTH - 16)
  $0 = substr($0, 1, RSTART + 15) sprintf("%.3f", 0.4 * v) \
    substr($0, RSTART + RLENGTH)
} { print }' BENCH_baseline.json >"$tmp/fast/BENCH_engine.json"
(cd "$tmp/fast" &&
  expect_exit 1 "$bench" --compare-only --baseline "$root/BENCH_baseline.json" \
    --inject-regression ns_per_event=3)
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
# End-to-end through the CLI: publish a store, take the golden view from
# `sdds view` on the plaintext (the engine over the DOM, with no card,
# crypto or link), check the fault-free query against it with and
# without a user query, then serve the same query over fault-injecting
# links. Every run must exit 0 with stdout byte-identical to golden (the
# qcheck properties in test/test_fault.ml cover the randomized version;
# this pins a few deterministic seeds in CI).
soak="$tmp/soak"
mkdir "$soak"
dune exec bin/sdds_cli.exe -- keygen -o "$soak/pub" >/dev/null
dune exec bin/sdds_cli.exe -- keygen -o "$soak/alice" >/dev/null
dune exec bin/sdds_cli.exe -- publish examples/policies/clinical.xml \
  --store "$soak/store" --id clinical --publisher "$soak/pub.sk" \
  --rule "+, alice, //patient" --rule="-, alice, //ssn" \
  --grant "alice=$soak/alice.pk" >/dev/null
# The last pass leaves the golden view without a user query.
for q in "//patient/name" ""; do
  dune exec bin/sdds_cli.exe -- view examples/policies/clinical.xml \
    --rule "+, alice, //patient" --rule="-, alice, //ssn" -s alice \
    ${q:+-q "$q"} >"$soak/golden.xml"
  dune exec bin/sdds_cli.exe -- query --store "$soak/store" --id clinical \
    -s alice --key "$soak/alice.sk" ${q:+-q "$q"} \
    >"$soak/out.xml" 2>/dev/null
  cmp -s "$soak/golden.xml" "$soak/out.xml" || {
    echo "error: query ${q:+-q $q }differs from sdds view" >&2
    exit 1
  }
done
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
# A skipped step is named on the last line, so a run without odoc never
# reads as a full pass.
skipped=""
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "odoc not installed; skipping dune build @doc"
  skipped="dune build @doc, odoc not installed"
fi

echo "== tree hygiene =="
if git ls-files | grep -q '^_build/'; then
  echo "error: _build/ artifacts are tracked in git" >&2
  git ls-files | grep '^_build/' | head >&2
  exit 1
fi

echo "CI OK${skipped:+ (skipped: $skipped)}"

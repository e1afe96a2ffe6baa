#!/usr/bin/env bash
# Tier-1 verification, run fully offline.
#
# The workspace has a zero-registry-dependency policy (see
# tests/hermetic.rs): every dependency is a path dependency, so a clean
# checkout must build and test with no network and no crates.io cache.
# CI should run exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

# Engine-unification guard: all lac-core training loops go through
# lac-core::engine::TrainSession, which owns the single Adam. A second
# `Adam::new` in lac-core means someone re-grew a bespoke loop.
echo "== engine guard: exactly one Adam::new in lac-core"
if grep -rn "Adam::new" crates/lac-core/src | grep -v "crates/lac-core/src/engine/"; then
    echo "verify: FAIL — Adam::new outside crates/lac-core/src/engine/ (train through TrainSession instead)" >&2
    exit 1
fi
adam_sites=$(grep -rhn "Adam::new" crates/lac-core/src/engine/ | grep -cv "^[0-9]*: *\(//\|//!\|///\)")
if [[ "${adam_sites}" != "1" ]]; then
    echo "verify: FAIL — expected exactly 1 Adam::new in crates/lac-core/src/engine/, found ${adam_sites}" >&2
    exit 1
fi

# Panic-free engine guard: the training engine reports failures as
# structured TrainError values, never by unwinding. New unwrap()/panic!
# in non-test engine code would reintroduce sweep-killing crashes. Test
# modules (everything from a `#[cfg(test)]` line down) are exempt.
echo "== engine guard: no unwrap()/panic! in lac-core engine non-test code"
engine_panics=$(for f in crates/lac-core/src/engine/*.rs; do
    awk '/#\[cfg\(test\)\]/{exit} /\.unwrap\(\)|panic!/{print FILENAME": "$0}' "$f"
done)
if [[ -n "${engine_panics}" ]]; then
    echo "verify: FAIL — unwrap()/panic! in engine non-test code (return TrainError instead):" >&2
    echo "${engine_panics}" >&2
    exit 1
fi

# Panic-free serving guard: the hardened daemon reports failures as
# structured error frames (taxonomy prefixes: malformed request/
# overflow/deadline/panic/shutdown/debug/swap/unavailable/inference,
# plus the BUSY opcode), never by unwinding — even
# the injected chaos panic goes through lac-rt's deliberate_panic under
# the supervisor. New unwrap()/panic! in non-test lac-serve code would
# crash the dispatcher instead of answering the request. Doc-comment
# lines and test modules (from a `#[cfg(test)]` line down) are exempt.
echo "== serving guard: no unwrap()/panic! in lac-serve non-test code"
serve_panics=$(for f in crates/lac-serve/src/*.rs; do
    awk '/^[[:space:]]*\/\//{next} /#\[cfg\(test\)\]/{exit} /\.unwrap\(\)|panic!/{print FILENAME": "$0}' "$f"
done)
if [[ -n "${serve_panics}" ]]; then
    echo "verify: FAIL — unwrap()/panic! in lac-serve non-test code (answer a structured error frame instead):" >&2
    echo "${serve_panics}" >&2
    exit 1
fi

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo test -q --offline"
cargo test -q --offline

# Sweep-orchestrator guard: experiment binaries declare UnitJob lists;
# only lac-bench::sched executes cells. A direct trainer/search/driver
# call (or the old per-cell error plumbing) in src/bin means a sweep
# loop grew outside the orchestrator — unparallel, uncached,
# nondeterministic.
echo "== sweep guard: no training/search calls in lac-bench binaries"
if grep -rn -E "_observed\(|train_fixed_|batch_grads\(|batch_outputs\(|search_single_|search_multi_|search_accuracy_|greedy_multi_|brute_force_all|brute_force_observed|run_caught\(|record_error_row\(|run_logger\(" \
    crates/lac-bench/src/bin/; then
    echo "verify: FAIL — direct trainer/search call in crates/lac-bench/src/bin (declare a sched::UnitJob instead)" >&2
    exit 1
fi

# The fault/recovery suite is part of the workspace test run above, but
# name the load-bearing suites explicitly so a filtered or partial CI
# configuration cannot silently skip them.
echo "== fault + recovery suites"
cargo test -q --offline -p lac-hw faults::
cargo test -q --offline -p lac-core engine::
cargo test -q --offline --test recovery

# Determinism contract (DESIGN.md §7c): the same sweep at 1 and 8
# workers must produce byte-identical rows artifacts and report CSVs,
# an injected panic must become an error row, a re-run must be 100%
# cache hits with zero training epochs, and an interrupted sweep must
# resume to the uninterrupted bytes. Also part of the workspace run,
# named here so it cannot be filtered away.
echo "== sweep determinism suite (1 vs 8 workers, cache, resume)"
cargo test -q --offline --test sweep_determinism
cargo test -q --offline -p lac-rt --test jobqueue

# Kernel bit-equivalence battery (DESIGN.md §7d): the blocked LUT-matmul
# fast path must stay bit-identical to the scalar trait-object path for
# every catalog unit (healthy, signed-adapted, and fault-injected),
# across repeated-operand tabulation and worker counts, and the JPEG
# golden pin must keep reproducing the pre-kernel-swap training
# trajectory bit-for-bit. Named explicitly so a filtered CI
# configuration cannot silently skip them.
echo "== matmul kernel bit-equivalence battery"
cargo test -q --offline --test matmul_equivalence
cargo test -q --offline -p lac-tensor --lib matmul_fast::
cargo test -q --offline --test golden_seed jpeg_train_fixed

# Product-row battery (DESIGN.md §7b): units with no dense table
# (16-bit catalog units, sign-magnitude adapters, fault-injected wide
# specs) gather conv and scale products from per-tap rows, or fall back
# to one model call per product on wide or non-finite pixel spans; both
# must match the per-product walk bit-for-bit, and blur/edge training on
# mul16s_GAT must reproduce its pre-row golden bits.
echo "== product-row battery (untabulated conv/scale, wide-unit golden pins)"
cargo test -q --offline --test matmul_equivalence untabulated
cargo test -q --offline -p lac-tensor --lib product_rows
cargo test -q --offline --test golden_seed on_wide_unit

# Row-call battery (DESIGN.md §7b): untabulated approx_matmul makes one
# Multiplier::multiply_row call per row of products. multiply_row must
# equal one multiply per element for every unit kind (catalog, LUT,
# sign-magnitude, fault-injected, every column truncation), the closed
# form of the truncated columns must match the old bit loop, the matmul
# and elementwise ops on untabulated units must match the per-product
# walk bit-for-bit, and jpeg/dft training on mul16s_GAT must reproduce
# its per-product golden bits.
echo "== row-call battery (multiply_row, untabulated matmul/elem, jpeg/dft wide pins)"
cargo test -q --offline -p lac-hw --test properties multiply_row
cargo test -q --offline -p lac-hw --lib closed_form_dropped
cargo test -q --offline --test matmul_equivalence untabulated_matmul_and_elem
cargo test -q --offline --test golden_seed -- jpeg_train_fixed_on_wide_unit dft_train_fixed_on_wide_unit

# CNN workload suites: the golden-seed pin for fixed-hardware CNN
# training, per-layer gate-search invariance in the worker count,
# bit-exact checkpoint/resume through a CNN session, the CNN-shape
# rows of the equivalence battery, and the dataset/app/per-layer-plan
# unit suites backing them. Named explicitly so a filtered CI
# configuration cannot silently skip them.
echo "== cnn workload suites (golden pin, per-layer search, resume)"
cargo test -q --offline --test cnn_pipeline
cargo test -q --offline --test matmul_equivalence cnn_shapes
cargo test -q --offline -p lac-data cnn::
cargo test -q --offline -p lac-apps cnn::
cargo test -q --offline -p lac-core per_layer

# Serving suites (DESIGN.md §8): framing survives partial reads,
# pipelining, oversized and garbage frames; responses are byte-identical
# for any worker count and max batch size given the same arrival order;
# hot-swap finishes in-flight work on the old checkpoint. Named
# explicitly so a filtered CI configuration cannot silently skip them.
echo "== serving suites (framing properties, determinism, hot-swap)"
cargo test -q --offline -p lac-serve --test protocol_props
cargo test -q --offline -p lac-serve --test serving

# Resilience suites (DESIGN.md §10): bounded admission sheds with BUSY
# frames, deadlines expire deterministically on a mock clock, slow
# readers are condemned without stalling dispatch, an injected
# dispatcher panic is supervised into error frames plus one restart
# with byte-identical service around it, and the seeded chaos/overload
# sweep is byte-identical for any --jobs value and worker count. Named
# explicitly so a filtered CI configuration cannot silently skip them.
echo "== resilience suites (chaos harness, admission, deadlines, supervision)"
cargo test -q --offline -p lac-serve chaos::
cargo test -q --offline -p lac-serve --test resilience

# One serving core (DESIGN.md §10): the TCP daemon and the in-process
# resilience driver run the same admission → batch → dispatch → respond
# code, so one scripted request sequence must get byte-identical
# responses from both; and every error frame the daemon can be made to
# send carries a class DESIGN.md §10 documents.
echo "== serving core: driver conformance + error taxonomy"
cargo test -q --offline -p lac-serve --lib chaos::tests::tcp_and_in_process_drivers_answer_byte_identically
cargo test -q --offline -p lac-serve --test taxonomy

# Governor ownership guard (DESIGN.md §9): runtime serving-mode state
# has exactly one writer — the QualityGovernor FSM. Registry install
# paths use the distinct initialize()/clamp_to() entry points; any
# other set_mode( call in lac-serve means mode mutation grew a second
# owner and the determinism pin no longer covers it.
echo "== governor guard: only governor.rs calls set_mode in lac-serve"
mode_writers=$(for f in crates/lac-serve/src/*.rs; do
    [[ "$f" == "crates/lac-serve/src/governor.rs" ]] && continue
    # Test modules (from a #[cfg(test)] line down) may simulate steps.
    awk '/#\[cfg\(test\)\]/{exit} /set_mode\(/{print FILENAME": "$0}' "$f"
done)
if [[ -n "${mode_writers}" ]]; then
    echo "verify: FAIL — set_mode( outside crates/lac-serve/src/governor.rs (only the QualityGovernor mutates serving mode state):" >&2
    echo "${mode_writers}" >&2
    exit 1
fi

# Quality-governor suites (DESIGN.md §9): ladder serialization
# round-trips and fingerprints, selector/registry swap position
# handoff, rolling-window metrics, FSM hysteresis edges, and the
# closed-loop determinism pin (byte-identical mode-transition traces at
# 1/2/4 workers with a seeded flip=0.05 fault mid-run). Named
# explicitly so a filtered CI configuration cannot silently skip them.
echo "== governor suites (ladder, rolling window, serving modes, closed loop)"
cargo test -q --offline -p lac-hw ladder::
cargo test -q --offline -p lac-metrics rolling::
cargo test -q --offline -p lac-core serving::
cargo test -q --offline -p lac-serve --test governor

# End-to-end daemon smoke through the real binaries: train a tiny
# checkpoint, serve it on an ephemeral port, round-trip seeded load,
# then stop it with a SHUTDOWN frame and require a clean exit.
echo "== serve smoke: train -> serve -> loadgen -> hot-swap -> graceful shutdown"
cargo build --release --offline -p lac-cli
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

# CLI convention smoke: governor flag usage errors must name the flag
# and the offending value and exit 2 (runtime failures exit 1).
check_usage_error() {
    local flag="$1" value="$2"
    set +e
    local msg code
    msg="$(./target/release/lac-cli serve nosuch.ck.json "$flag" "$value" 2>&1)"
    code=$?
    set -e
    if [[ $code -ne 2 ]]; then
        echo "verify: FAIL — \`serve $flag $value\` exited $code, usage errors must exit 2" >&2
        exit 1
    fi
    if ! grep -qF -- "$flag" <<<"$msg"; then
        echo "verify: FAIL — \`serve $flag $value\` error does not name $flag: $msg" >&2
        exit 1
    fi
}
check_usage_error --slo nine
check_usage_error --slo 1.5
check_usage_error --sample-rate 0
check_usage_error --ladder ""
check_usage_error --queue-cap 0
check_usage_error --deadline-default 0

# Loadgen resilience flags follow the same convention: usage errors
# name the flag (or the chaos spec key) and exit 2.
check_loadgen_usage_error() {
    local flag="$1" value="$2" needle="$3"
    set +e
    local msg code
    msg="$(./target/release/lac-cli loadgen --port 1 "$flag" "$value" 2>&1)"
    code=$?
    set -e
    if [[ $code -ne 2 ]]; then
        echo "verify: FAIL — \`loadgen $flag $value\` exited $code, usage errors must exit 2" >&2
        exit 1
    fi
    if ! grep -qF -- "$needle" <<<"$msg"; then
        echo "verify: FAIL — \`loadgen $flag $value\` error does not mention $needle: $msg" >&2
        exit 1
    fi
}
check_loadgen_usage_error --timeout 0 "--timeout"
check_loadgen_usage_error --chaos "bogus=1" "chaos: unknown key"
# A ladder that omits the trained spec is also a --ladder usage error.
./target/release/lac-cli train blur ETM8-k4 --epochs 2 --train 4 --test 2 \
    --resume "$smoke_dir/blur.ck.json" >/dev/null
set +e
msg="$(./target/release/lac-cli serve "$smoke_dir/blur.ck.json" \
    --slo 0.9 --ladder exact8u,mul8u_FTA 2>&1)"
code=$?
set -e
if [[ $code -ne 2 ]] || ! grep -q -- "--ladder" <<<"$msg"; then
    echo "verify: FAIL — trained-spec-free --ladder must be a usage error (exit 2, naming --ladder); got $code: $msg" >&2
    exit 1
fi

./target/release/lac-cli serve "$smoke_dir/blur.ck.json" --port 0 --workers 2 --batch 4 \
    >"$smoke_dir/serve.log" 2>&1 &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's/.*serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$smoke_dir/serve.log")"
    [[ -n "$port" ]] && break
    sleep 0.1
done
if [[ -z "$port" ]]; then
    echo "verify: FAIL — serve daemon never reported its port:" >&2
    cat "$smoke_dir/serve.log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
./target/release/lac-cli loadgen --port "$port" --app blur --requests 12 --conns 2 --window 4
# Hot-swap the checkpoint back in over the wire, then keep serving.
./target/release/lac-cli loadgen --port "$port" --swap "$smoke_dir/blur.ck.json"
./target/release/lac-cli loadgen --port "$port" --app blur --requests 6 --conns 1 --window 2
./target/release/lac-cli loadgen --port "$port" --shutdown
if ! wait "$serve_pid"; then
    echo "verify: FAIL — serve daemon did not exit cleanly after SHUTDOWN:" >&2
    cat "$smoke_dir/serve.log" >&2
    exit 1
fi
grep -q "shut down cleanly" "$smoke_dir/serve.log" || {
    echo "verify: FAIL — serve daemon exited without the clean-shutdown message" >&2
    exit 1
}

# Quality-governed serving smoke: the same daemon with --slo samples
# every batch, replays it exactly, and streams JSONL telemetry.
echo "== governed serve smoke: --slo + --ladder auto -> telemetry"
./target/release/lac-cli serve "$smoke_dir/blur.ck.json" --port 0 --workers 2 --batch 4 \
    --slo 0.95 --ladder auto --sample-rate 1 --gov-window 2 --gov-dwell 2 \
    --governor-log "$smoke_dir/governor.jsonl" >"$smoke_dir/gov-serve.log" 2>&1 &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's/.*serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$smoke_dir/gov-serve.log")"
    [[ -n "$port" ]] && break
    sleep 0.1
done
if [[ -z "$port" ]]; then
    echo "verify: FAIL — governed serve daemon never reported its port:" >&2
    cat "$smoke_dir/gov-serve.log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
./target/release/lac-cli loadgen --port "$port" --app blur --requests 12 --conns 2 --window 4
./target/release/lac-cli loadgen --port "$port" --shutdown
if ! wait "$serve_pid"; then
    echo "verify: FAIL — governed serve daemon did not exit cleanly:" >&2
    cat "$smoke_dir/gov-serve.log" >&2
    exit 1
fi
grep -q "governor on: slo 0.95" "$smoke_dir/gov-serve.log" || {
    echo "verify: FAIL — governed daemon never announced its governor" >&2
    exit 1
}
grep -q '"event":"sample"' "$smoke_dir/governor.jsonl" || {
    echo "verify: FAIL — governor telemetry has no sample events:" >&2
    cat "$smoke_dir/governor.jsonl" >&2
    exit 1
}

# Opt-in performance gate: set LAC_BENCH_CHECK=1 to re-run the macro
# bench suites and compare against the committed baselines in
# results/bench/ (see scripts/bench_check.sh). Off by default so tier-1
# stays deterministic on loaded or heterogeneous machines.
if [[ "${LAC_BENCH_CHECK:-0}" != "0" ]]; then
    echo "== bench_check (LAC_BENCH_CHECK=${LAC_BENCH_CHECK})"
    ./scripts/bench_check.sh
fi

echo "verify: OK"

#!/usr/bin/env bash
# Lists the public functions that only their own file's unit tests call.
#
#   scripts/list_test_only_pub.sh
#
# Takes every `pub fn` in crates/*/src and src that is not itself inside
# a `#[cfg(test)]` module, and looks for its name, as a whole word, in
# every `.rs` file under crates, src, tests, examples and benchmark. It
# skips comment lines, the definition line, and the defining file's
# `#[cfg(test)] mod` (taken to run from that attribute to the end of the
# file, where every test module in this workspace sits). Each function
# whose name is found nowhere else is printed as `<file>:<line>: <name>`.
#
# The match is by name only: a function that shares its name with any
# other item is never listed, so the list can miss a test-only function
# but never names one that other code calls. Prints only; exits 0.
set -euo pipefail

cd "$(dirname "$0")/.."
mapfile -t files < <(find crates src tests examples benchmark -name '*.rs' \
    -not -path '*/target/*' | sort)

awk '
    # Pass 1: where each file'"'"'s test module starts, and the pub fns.
    pass == 1 {
        if (prev ~ /^#\[cfg\(test\)\][[:space:]]*$/ && $0 ~ /^mod [A-Za-z0-9_]+ \{/ \
            && !(FILENAME in tests)) {
            tests[FILENAME] = FNR - 1
        }
        prev = $0
        if (FILENAME ~ /^(crates\/[^\/]+\/)?src\// \
            && match($0, /^[[:space:]]*pub fn [A-Za-z0-9_]+/)) {
            name = substr($0, RSTART, RLENGTH)
            sub(/^[[:space:]]*pub fn /, "", name)
            ndefs++
            def_name[ndefs] = name
            def_file[ndefs] = FILENAME
            def_line[ndefs] = FNR
            by_name[name] = (name in by_name) ? by_name[name] " " ndefs : ndefs
        }
        next
    }
    # Pass 2: count the uses of each definition.
    $0 ~ /^[[:space:]]*\/\// { next }
    {
        n = split($0, tokens, /[^A-Za-z0-9_]+/)
        for (t = 1; t <= n; t++) {
            if (!(tokens[t] in by_name)) continue
            k = split(by_name[tokens[t]], ids, " ")
            for (i = 1; i <= k; i++) {
                d = ids[i]
                if (FILENAME == def_file[d] \
                    && (FNR == def_line[d] || (FILENAME in tests && FNR >= tests[FILENAME]))) {
                    continue
                }
                used[d] = 1
            }
        }
    }
    END {
        for (d = 1; d <= ndefs; d++) {
            f = def_file[d]
            if (f in tests && def_line[d] >= tests[f]) continue
            if (!(d in used)) printf "%s:%d: %s\n", f, def_line[d], def_name[d]
        }
    }
' pass=1 "${files[@]}" pass=2 "${files[@]}"

#!/usr/bin/env bash
# Counts library code lines of Rust source files, one line per file plus
# a total:
#
#   scripts/code_lines.sh crates/core/src/remote.rs crates/core/src/prefetch.rs
#
# A code line is a line that is not blank, does not start with `//`
# (comments and doc comments), and lies outside every `#[cfg(test)]` item:
# a test module, a test-only `impl` block or function, or a test-only
# `use`, wherever in the file it sits. The item after the attribute ends
# at its closing brace, or at its `;` if it opens no brace. String, char
# and comment contents are skipped when braces are matched.
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 <file.rs>..." >&2
    exit 2
fi

LC_ALL=C awk '
function reset_file() {
    in_str = 0; raw = -1; in_block = 0
    skipping = 0; opened = 0; depth = 0
}

# Walks one line, keeping string and block-comment state across lines.
# While an item is being skipped, counts its braces and notes its end.
function scan(line,    i, n, c, rest, j, body) {
    n = length(line)
    for (i = 1; i <= n; i++) {
        c = substr(line, i, 1)
        if (in_block) {
            if (c == "*" && substr(line, i + 1, 1) == "/") { in_block--; i++ }
            else if (c == "/" && substr(line, i + 1, 1) == "*") { in_block++; i++ }
            continue
        }
        if (in_str) {
            if (raw < 0) {
                if (c == "\\") i++
                else if (c == "\"") in_str = 0
            } else if (c == "\"" && substr(line, i + 1, raw) == substr(HASHES, 1, raw)) {
                in_str = 0; i += raw
            }
            continue
        }
        if (c == "/" && substr(line, i + 1, 1) == "/") return
        if (c == "/" && substr(line, i + 1, 1) == "*") { in_block = 1; i++; continue }
        if (c == "\"") { in_str = 1; raw = -1; continue }
        if (c == "r" && (i == 1 || substr(line, i - 1, 1) !~ /[A-Za-z0-9_]/ || substr(line, i - 2, 2) ~ /^[^A-Za-z0-9_]?b$/)) {
            rest = substr(line, i)
            if (match(rest, /^r#*"/)) { in_str = 1; raw = RLENGTH - 2; i += RLENGTH - 1; continue }
        }
        if (c == "\x27") {
            # A char literal, escaped or one (possibly multi-byte)
            # character; anything else is a lifetime.
            rest = substr(line, i + 1)
            if (substr(rest, 1, 1) == "\\") {
                j = index(substr(rest, 3), "\x27")
                if (j > 0) i += j + 2
                continue
            }
            j = index(rest, "\x27")
            if (j > 1) {
                body = substr(rest, 1, j - 1)
                if (j == 2 || (j <= 5 && body !~ /[ -~]/)) i += j
            }
            continue
        }
        if (!skipping) continue
        if (c == "{") { depth++; opened = 1 }
        else if (c == "}") { depth--; if (opened && depth == 0) { skipping = 0; return } }
        else if (c == ";" && !opened && depth == 0) { skipping = 0; return }
    }
}

BEGIN { HASHES = "################"; total = 0; reset_file() }

FNR == 1 {
    if (NR > 1) { printf "%6d %s\n", count, file; total += count }
    file = FILENAME; count = 0; reset_file()
}

{
    line = $0
    trimmed = line
    sub(/^[ \t]+/, "", trimmed)
    plain = !in_str && !in_block
    if (plain && !skipping && index(trimmed, "#[cfg(test)]") == 1) {
        skipping = 1; opened = 0; depth = 0
        scan(substr(trimmed, 13))
        next
    }
    was_skipping = skipping
    scan(line)
    if (was_skipping) next
    if (plain && (trimmed == "" || index(trimmed, "//") == 1)) next
    count++
}

END {
    if (NR > 0) { printf "%6d %s\n", count, file; total += count }
    printf "%6d total\n", total
}
' "$@"

#!/bin/bash
# Same-bytes check: builds revision <rev> (through a temporary git
# worktree) and the working tree, each into its own temp directory, runs
# every command of scripts/samebytes.txt with both builds and compares
# what they produce byte for byte: stdout, stderr, the exit status and
# every file the command writes. Each command runs in a fresh empty
# directory, so the relative output paths of its arguments (-csv,
# -metrics, -o, ...) land there and are compared too.
#
# Prints one verdict line per command ("same", "DIFF: <what>", or
# "MISSING: <binary>" when a build lacks the program) and exits 1 if any
# command is not the same, 2 on a usage or build error.
#
#   scripts/samebytes.sh HEAD~1
#
# Set KEEP=1 to keep the temp directory (its path is printed) for
# inspecting a difference. TMPDIR chooses where it is made.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: scripts/samebytes.sh <rev>" >&2
    exit 2
fi
rev=$1
root=$(git rev-parse --show-toplevel)
cd "$root"
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "samebytes: unknown revision $rev" >&2
    exit 2
}

tmp=$(mktemp -d "${TMPDIR:-/tmp}/samebytes.XXXXXX")
cleanup() {
    git worktree remove --force "$tmp/src" >/dev/null 2>&1 || true
    git worktree prune
    if [ "${KEEP:-0}" = 1 ]; then
        echo "samebytes: kept $tmp" >&2
    else
        rm -rf "$tmp"
    fi
}
trap cleanup EXIT

# build <source dir> <bin dir>: every command and example program.
build() {
    mkdir -p "$2"
    (cd "$1" && go build -o "$2/" ./cmd/dtsim ./cmd/dtconform ./cmd/dtexperiments ./examples/...) || {
        echo "samebytes: build of $1 failed" >&2
        exit 2
    }
}
git worktree add --detach --quiet "$tmp/src" "$rev"
build "$tmp/src" "$tmp/bin-base"
build "$root" "$tmp/bin-work"

# run <bin dir> <out dir> <command words...>: one command in a fresh
# directory; stdout, stderr and the status go beside it.
run() {
    local bin=$1 out=$2
    shift 2
    local exe
    exe="$bin/$(basename "$1")"
    shift
    mkdir -p "$out/files"
    local status=0
    (cd "$out/files" && "$exe" "$@" </dev/null >"$out/stdout" 2>"$out/stderr") || status=$?
    echo "$status" >"$out/status"
}

bad=0
n=0
while IFS= read -r line || [ -n "$line" ]; do
    case $line in '' | '#'*) continue ;; esac
    n=$((n + 1))
    read -r -a words <<<"$line"
    name=$(basename "${words[0]}")
    if [ ! -x "$tmp/bin-base/$name" ] || [ ! -x "$tmp/bin-work/$name" ]; then
        echo "MISSING: $name  $line"
        bad=1
        continue
    fi
    run "$tmp/bin-base" "$tmp/run/$n/base" "${words[@]}"
    run "$tmp/bin-work" "$tmp/run/$n/work" "${words[@]}"
    what=()
    for f in status stdout stderr; do
        cmp -s "$tmp/run/$n/base/$f" "$tmp/run/$n/work/$f" || what+=("$f")
    done
    diff -rq "$tmp/run/$n/base/files" "$tmp/run/$n/work/files" >/dev/null || what+=("files")
    if [ ${#what[@]} -eq 0 ]; then
        echo "same  $line"
    else
        echo "DIFF: ${what[*]}  $line"
        bad=1
    fi
done <"$root/scripts/samebytes.txt"

exit $bad

#!/usr/bin/env bash
# Line count of the root module's Go code, the one way: every line of
# every .go file in the worktree outside bench/ (its own module) that
# git tracks or would track (untracked, not ignored), split into
# non-test and _test.go. A tracked file deleted from the worktree is
# not counted. ROADMAP tracks the non-test figure; CI prints both so
# each PR counts the same thing.
#
# Usage:
#   scripts/loc.sh            # two totals
#   scripts/loc.sh DIR...     # the same, for files under the given directories
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(git ls-files --cached --others --exclude-standard '*.go' ':!bench' | sort -u)
if [ "$#" -gt 0 ]; then
    files=$(for dir in "$@"; do grep "^${dir%/}/" <<< "$files" || true; done)
fi

count() { # $1: grep flag selecting (-e) or rejecting (-v) _test.go files
    local n=0 f
    while IFS= read -r f; do
        [ -f "$f" ] && n=$((n + $(wc -l < "$f")))
    done < <(grep "$1" '_test\.go$' <<< "$files" || true)
    echo "$n"
}

echo "non-test $(count -v)"
echo "test     $(count -e)"

# Runs one executable twice and fails unless both runs exit 0 with
# byte-identical stdout:
#
#   bash same_stdout.sh EXE -- ARGS_A... -- ARGS_B...
#
# The two outputs live in a temporary directory, not in the build tree:
# a file a dune rule writes with with-stdout-to is a target of its
# directory, so a plain `dune build` would rerun the smoke to build it.
set -eu

usage() { echo "usage: same_stdout.sh EXE -- ARGS_A... -- ARGS_B..." >&2; exit 2; }

[ $# -ge 2 ] && [ "$2" = -- ] || usage
exe=$1
shift 2
a=()
while [ $# -gt 0 ] && [ "$1" != -- ]; do a+=("$1"); shift; done
[ $# -gt 0 ] || usage
shift

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
"$exe" "${a[@]}" > "$dir/a"
"$exe" "$@" > "$dir/b"
cmp "$dir/a" "$dir/b"

# Helpers that the workflow steps source into bash:
#   check WANT CMD ARGS...       `sk1 CMD ARGS --format tsv` must print WANT;
#   check_exit CODE CMD ARGS...  `sk1 CMD ARGS` must exit CODE and print
#                                nothing on stdout.

check() {
  want="$1"; shift
  out="$(sk1 "$@" --format tsv)"
  if [ "$out" != "$want" ]; then
    echo "sk1 $*: expected: $want"
    echo "got: $out"
    exit 1
  fi
}

check_exit() {
  code="$1"; shift
  rc=0
  out="$(sk1 "$@")" || rc=$?
  if [ "$rc" -ne "$code" ] || [ -n "$out" ]; then
    echo "sk1 $*: expected exit $code and no output, got exit $rc and: $out"
    exit 1
  fi
}

# Counted-work gates for CI steps. Source it (`. .github/gates.sh`), then
#   pin FILE KEY N       counter KEY in FILE (a `--timings` dump) is exactly N
#   atmost FILE KEY N    ... is at most N
#   atleast FILE KEY N   ... is at least N
# Each prints the value it read and returns nonzero when KEY is missing
# from FILE or the bound fails. Under the `bash -e` that runs a step, a
# failing call ends the step wherever it stands in the step, so a
# renamed or missing counter cannot pass unnoticed.
gate() {
  got=$(awk -v k="$2" '$1 == k { print $2 }' "$1")
  echo "$2 = ${got:-missing} ($3 $4)"
  if [ -z "$got" ]; then
    echo "::error::counter $2 is missing from $1"
    return 1
  fi
  if ! [ "$got" "-$5" "$4" ] 2>/dev/null; then
    echo "::error::counter $2 = $got in $1, expected $3 $4"
    return 1
  fi
}

pin() { gate "$1" "$2" exactly "$3" eq; }
atmost() { gate "$1" "$2" "at most" "$3" le; }
atleast() { gate "$1" "$2" "at least" "$3" ge; }

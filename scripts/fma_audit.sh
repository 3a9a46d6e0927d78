#!/usr/bin/env bash
# Fused multiply-add audit of the exact packages.
#
# Go may fuse x*y ± z into one instruction on arm64 (and ppc64le, s390x,
# riscv64). The fused form skips the rounding of the product, so code that
# relies on that rounding (Veltkamp splitting, Dekker's product) gives
# other bits there than on amd64. An explicit float64(x*y) conversion
# forbids the fusion.
#
# This script compiles the exact packages for arm64 with -gcflags=-S and
# fails on any fused op whose source line is not an explicit math.FMA
# call in internal/eft/eft.go (eft.TwoProd's, which is fused on purpose).
#
# Usage: scripts/fma_audit.sh
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(./internal/eft ./internal/accum ./internal/core ./internal/engine ./internal/fpnum)
asm="$(GOARCH=arm64 go build -gcflags=-S "${pkgs[@]}" 2>&1)"

fused="$(printf '%s\n' "$asm" | awk '
  $0 ~ /\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\t/ {
    if (match($0, /\([^)]*:[0-9]+\)/)) {
      op = $0
      sub(/.*\)\t/, "", op)
      sub(/\t.*/, "", op)
      print substr($0, RSTART + 1, RLENGTH - 2), op
    }
  }')"

fail=0
allowed=0
while read -r pos op; do
  [ -n "$pos" ] || continue
  file="${pos%:*}"
  line="${pos##*:}"
  if [[ "$file" == */internal/eft/eft.go ]] && sed -n "${line}p" "$file" | grep -q 'math\.FMA('; then
    allowed=$((allowed + 1))
    echo "ok    $op at $pos (explicit math.FMA)"
  else
    echo "FUSED $op at $pos: wrap the product in float64(...)" >&2
    fail=1
  fi
done <<< "$fused"

if [ "$allowed" -eq 0 ]; then
  echo "audit saw no fused op at all; the -S output format may have changed" >&2
  fail=1
fi
exit "$fail"

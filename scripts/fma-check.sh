#!/bin/sh
# fma-check.sh — fails if the compiler fuses a multiply and an add into
# one instruction in the code whose bits the numerics goldens pin across
# targets: every function of internal/solver and internal/sparse, and
# the shifted distributed operator, par.(Operator).Apply.
#
# Go may fuse x*y + z into one multiply-add on targets that have one —
# arm64 does, amd64 (GOAMD64=v1) does not — and a fused result rounds
# once where the goldens, generated on amd64, round twice. An explicit
# float64(x*y) forbids the fusion. The check compiles the three packages
# for arm64 and reads the assembly listing; it runs no arm64 code, so it
# works on any host.
set -eu

root=$(git rev-parse --show-toplevel)
cd "$root"

GOARCH=arm64 go build -gcflags=-S ./internal/solver ./internal/sparse ./internal/par 2>&1 | awk '
	$2 == "STEXT" { fn = $1; seen[fn] = 1; next }
	$0 ~ /\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADDS|FMSUBS|FNMADDS|FNMSUBS)\t/ {
		if (fn ~ /^repro\/internal\/(solver|sparse)\./ || fn == "repro/internal/par.Operator.Apply") {
			print fn ":" $0
			bad++
		}
	}
	END {
		# An empty listing would pass vacuously: insist on the functions.
		if (!seen["repro/internal/solver.(*Vectors).Step"] || !seen["repro/internal/sparse.(*SymBCSR).mulVecDotGo"] ||
			!seen["repro/internal/sparse.(*BCSR).MulVec"] || !seen["repro/internal/par.Operator.Apply"]) {
			print "fma-check: the arm64 listing lacks the checked functions"
			exit 2
		}
		if (bad) {
			printf "fma-check: %d fused multiply-add(s) above; wrap each product in float64(...)\n", bad
			exit 1
		}
		print "fma-check: no fused multiply-adds in internal/solver, internal/sparse or par.(Operator).Apply (arm64)"
	}'

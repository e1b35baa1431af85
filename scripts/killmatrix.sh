#!/usr/bin/env bash
# Seeded-bug kill matrix (DESIGN §8).
#
# Each row names a seeded bug (scripts/killmatrix/<id>.patch) and the check
# that must catch it: a go test run pattern in one package, or one
# sprwl-model config with the violation kind it must report. This is the
# only place bugs are seeded. The script copies the working tree to a
# temporary directory, runs every distinct check once on the clean copy
# (each must pass), then applies each patch in turn, runs its check (it
# must fail) and reverts the patch. A model row counts as killed only if
# the output names its kind ("violation: <kind>"). It prints one line per
# row with the verdict and the check's wall time, and exits non-zero if a
# check fails on the clean tree, a seed survives, a model row reports
# another kind, a patched tree does not build (or the model cannot
# extract it), or a patch no longer applies.
#
# Usage, from anywhere in the repository:
#   bash scripts/killmatrix.sh            # every row
#   bash scripts/killmatrix.sh H1 B3      # just these rows
#   bash scripts/killmatrix.sh model      # every row of one check kind
set -u

rows=(
	# id   check    target                                       package | violation kind
	"H1    test     ^TestBravoSlowPathsDoNotAllocate$            ./internal/readers"
	"H2    test     ^TestPauseParkPathAllocs$                    ./internal/park"
	"H3    test     ^TestSectionPathsDoNotAllocate$              ./internal/core"
	"H4    test     ^TestSectionPathsDoNotAllocate$              ./internal/core"
	"H5    test     ^TestBravoSlowPathsDoNotAllocate$            ./internal/readers"
	"H6    test     ^TestKVHotPathsDoNotAllocate$                ./internal/workload"
	"H7    test     ^TestKVHotPathsDoNotAllocate$                ./internal/workload"
	"H8    test     ^TestKVHotPathsDoNotAllocate$                ./internal/workload"
	"B1    test     ^TestWorkerBodiesAreRetrySafe$               ./internal/workload"
	"B2    test     ^TestWorkerBodiesAreRetrySafe$               ./internal/workload"
	"B3    test     ^TestWorkerBodiesAreRetrySafe$               ./internal/workload"
	"B4    test     ^TestWorkerBodiesAreRetrySafe$               ./internal/workload"
	"B5    test     ^TestWorkerBodiesAreRetrySafe$               ./internal/workload"
	"S1    test     ^TestUninstrumentedAccessDoomsReownedLine$   ./internal/htm"
	"S2    test     ^TestUninstrumentedAccessDoomsReownedLine$   ./internal/htm"
	"S3    test     ^TestDifferentialSchedules$                  ./internal/htm"
	"S4    test     ^TestReadTableGrowthDoomsReader$             ./internal/htm"
	"S5    test     ^TestReadTableEpochWrap$                     ./internal/htm"
	"S6    test     ^TestReadTableEpochWrap$                     ./internal/htm"
	"S8    test     ^TestReadTableEpochWrap$                     ./internal/htm"
	"F1    model    mutex-2r1w                                   mutual-exclusion"
	"F2    test     ^TestWriterStoresClockBeforeAdvertising$     ./internal/core"
	"F3    model    vsgl-1r1w                                    mutual-exclusion"
	"F4    model    vsgl-1r1w                                    mutual-exclusion"
	"F5    test     ^TestAutoSwitchesToSNZIForLongReaders$       ./internal/core"
	"F6a   model    vsgl-1r1w                                    lost-wakeup"
	"F6b   model    vsgl-1r1w                                    lost-wakeup"
	"F6c   model    rsync-2r1w                                   lost-wakeup"
	"F6d   model    park-handshake                               lost-wakeup"
	"A1    test     ^TestNoAtomicFunctionCalls$                  ./internal/core"
	"D1    test     ^TestElidedSectionsSubscribe$                ./internal/rwlock/rwlocktest"
	"D2    test     ^TestElidedSectionsSubscribe$                ./internal/rwlock/rwlocktest"
	"D3    test     ^TestElidedSectionsSubscribe$                ./internal/rwlock/rwlocktest"
	"D4b   test     ^TestElidedSectionsSubscribe$                ./internal/rwlock/rwlocktest"
	"W1    model    mutex-2r1w                                   mutual-exclusion"
	"W2    model    mutex-2r1w                                   mutual-exclusion"
	"C1    test     ^TestFig1WriterAbortsOnActiveReader$         ./internal/core"
)

root=$(git rev-parse --show-toplevel) || exit 2
patches="$root/scripts/killmatrix"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Copy tracked and untracked-but-not-ignored files: the tree as it stands.
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
	tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -xf - -C "$tmp" || exit 2
cd "$tmp" || exit 2
go build -o "$tmp/.sprwl-model" ./cmd/sprwl-model || exit 2

# check runs one row's check in the copy and returns its exit status.
check() {
	case "$1" in
	test) go test -count=1 -timeout 180s -run "$2" "$3" >"$tmp/.out" 2>&1 ;;
	model) "$tmp/.sprwl-model" -config "$2" -maxstates 1000000 >"$tmp/.out" 2>&1 ;;
	*) echo "unknown check $1" >"$tmp/.out"; return 2 ;;
	esac
}

# want reports whether a row is selected, by its id ($1) or its check
# kind ($2).
selected=("$@")
want() {
	[ ${#selected[@]} -eq 0 ] && return 0
	local s
	for s in "${selected[@]}"; do [ "$s" = "$1" ] || [ "$s" = "$2" ] && return 0; done
	return 1
}

status=0
declare -A clean
for row in "${rows[@]}"; do
	read -r id kind target arg <<<"$row"
	want "$id" "$kind" || continue
	# A model config's clean run does not depend on the kind a row expects.
	key="$kind $target"
	[ "$kind" = test ] && key="$key $arg"
	[ -n "${clean[$key]:-}" ] && continue
	clean[$key]=1
	if ! check "$kind" "$target" "$arg"; then
		echo "clean tree fails: $key"
		tail -20 "$tmp/.out"
		status=1
	fi
done

for row in "${rows[@]}"; do
	read -r id kind target arg <<<"$row"
	want "$id" "$kind" || continue
	if ! git apply "$patches/$id.patch" 2>"$tmp/.out"; then
		printf '%-4s does-not-apply\n' "$id"
		cat "$tmp/.out"
		status=1
		continue
	fi
	start=$(date +%s%N)
	check "$kind" "$target" "$arg"
	rc=$?
	ms=$((($(date +%s%N) - start) / 1000000))
	# A seed is killed only by a failing check, not by a patch that
	# breaks the build or the model's extraction, and a model row only by
	# a violation of the kind it names.
	verdict=killed
	if [ "$rc" -eq 0 ]; then
		verdict=SURVIVED
	elif grep -q 'build failed\|setup failed' "$tmp/.out" || { [ "$kind" = model ] && [ "$rc" -ne 1 ]; }; then
		verdict=BROKEN
	elif [ "$kind" = model ] && ! grep -q "violation: $arg\$" "$tmp/.out"; then
		verdict=WRONGKIND
	fi
	if [ "$verdict" != killed ]; then
		status=1
		tail -20 "$tmp/.out"
	fi
	printf '%-4s %-9s %4d.%ds  %s %s %s\n' "$id" "$verdict" $((ms / 1000)) $((ms % 1000 / 100)) "$kind" "$target" "$arg"
	git apply -R "$patches/$id.patch" || exit 2
done
exit "$status"

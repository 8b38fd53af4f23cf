// The benchmark is its own module so that it builds from its own file and
// the repository's `go build ./... && go test ./...` never depends on it.
// The import path sits under `repro/`, which is what lets it import the
// stack's internal packages; the replace points at the checkout it is in.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../

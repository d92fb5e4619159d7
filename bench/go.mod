// The benchmark is a module of its own because the contract it is
// written to (see README.md, "Departures") wants a compiled benchmark to
// be a package of its own, in its own directory, with its own build
// file; the price is that `go test ./...` at the repository root does
// not run its tests. Its import path keeps the `repro/` prefix, which is
// what lets it import repro/internal/...; the replace directive binds
// `repro` to the checkout it sits in.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../

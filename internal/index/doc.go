// Package index defines the contract every YASK index family — the
// SetR-tree and the KcR-tree — exposes to the engine layers above it: a Provider owning the build/mutate/refresh
// lifecycle and a Snapshot carrying the arena-scoped query primitives.
//
// The contract is what makes the engine composable: internal/core
// drives the publish/settle/epoch protocol of every family through one
// Provider slice, and every query algorithm in core is written once
// against Snapshot primitives. The same indirection is what lets a
// memory-mapped arena (docs/FORMATS.md) serve in place of a heap-built
// index: core cannot tell the difference, and the yasklint
// snapshotdiscipline analyzer statically keeps it that way.
//
// The package also hosts the brute-force oracles (ScanTopK, ScanRank)
// every equivalence property suite validates the families against.
package index

package solver

// The in-package fixture, shared with the external tests, which need
// internal/par (an importer of this package) beside it.
var (
	BuildSystem     = buildSystem
	FixtureMaterial = fixtureMaterial
)

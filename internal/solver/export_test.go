package solver

// The in-package fixture, shared with the external tests, which need
// internal/par (an importer of this package) beside it.
var (
	BuildSystem     = buildSystem
	FixtureMaterial = fixtureMaterial
)

// The gate's bound and restart budget, which the external tests pin.
const (
	CertSlack   = certSlack
	MaxRestarts = maxRestarts
)

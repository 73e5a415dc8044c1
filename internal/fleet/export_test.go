package fleet

// Test helpers for the external fleet_test package, whose tests may
// import packages that themselves import fleet (internal/edge).
var (
	CheckSourceMatchesSpecs = checkSourceMatchesSpecs
	SpecsForTest            = testSpecs
)

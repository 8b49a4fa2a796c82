package gcl

// Hooks for rings_test.go, which compiles the ring package's generated
// programs: package ring imports gcl, so those tests live in gcl_test.
var (
	AssertSameAsReference = assertSameAsReference
	Tabulated             = tabulated
)

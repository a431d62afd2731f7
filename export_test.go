package libseal

// Helpers of the package's own tests that the external test package
// (chaos_test.go, which imports internal/bench and so cannot live inside
// package libseal) reuses.
var (
	OpenMirroredServer = openMirroredServer
	DriveGitWorkload   = driveGitWorkload
	WaitMirrorSynced   = waitMirrorSynced
)

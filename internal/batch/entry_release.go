//go:build !boundschecks

package batch

// entryChecks is off in release builds: the checks read all n² cells of
// s, which is what the kernel's entry contract saves. Build with -tags
// boundschecks to turn them on.
const entryChecks = false

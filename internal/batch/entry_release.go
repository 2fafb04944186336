//go:build !boundschecks

package batch

// entryChecks is off in release builds: the check reads all n² cells of
// s and of T, which is what the kernel's entry contract saves. Build with
// -tags boundschecks to turn it on.
const entryChecks = false

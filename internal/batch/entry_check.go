//go:build boundschecks

package batch

// entryChecks enables the kernel's entry checks: every cell of
// MatrixFormScratch's s is +0, every worker's accumulator holds +0 with
// no column marked, and each of MatrixFormUpper's row segments is +0.
// The release build compiles the checks away (see entry_release.go); CI
// runs the full test suite under -tags boundschecks, so every kernel
// call in it is checked.
const entryChecks = true

//go:build boundschecks

package batch

// entryChecks enables MatrixFormScratch's entry check: every cell of s
// is +0, and so is every cell of T outside its flags. The release build
// compiles the check away (see entry_release.go); CI runs the full test
// suite under -tags boundschecks, so every kernel call in it is checked.
const entryChecks = true

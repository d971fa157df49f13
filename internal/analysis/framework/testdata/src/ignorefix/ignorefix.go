// Package ignorefix exercises the suppression machinery: the dummy
// analyzer in run_test.go reports every function whose name starts with
// "trigger", and the directives below must silence exactly the right
// ones — and be reported themselves when malformed, stale or unknown.
package ignorefix

func triggerPlain() {}

//plshvet:ignore dummy demonstrates suppression on the line above
func triggerSuppressedAbove() {}

func triggerSuppressedSame() {} //plshvet:ignore dummy same-line suppression

//plshvet:ignore dummy
func triggerMalformed() {}

//plshvet:ignore nonexistent the analyzer name is wrong
func triggerUnknown() {}

//plshvet:ignore all blanket suppression covers every analyzer
func triggerAll() {}

// quiet does not trigger the dummy analyzer, so the directive below
// suppresses nothing and must be reported as stale.
//
//plshvet:ignore dummy this suppression matches no finding
func quiet() {}

// quietImmutable carries a verb no analyzer reads: the directive is reported,
// not silently ignored.
//
//plshvet:immutable write-once after publication
func quietImmutable() {}

package gen

// Behavior exposes behavior, the truth walk over M_r's rows, to the
// external tests.
var Behavior = behavior

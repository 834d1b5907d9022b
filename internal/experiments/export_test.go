package experiments

// Tail strips the leading "[sweep ...]" status line, for the external
// remote tests.
var Tail = tail

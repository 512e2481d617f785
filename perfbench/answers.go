package main

import "dart/internal/progs"

// verdict is the hand-known outcome of auditing one function.
type verdict int

const (
	// survives: the search reports no bug.
	survives verdict = iota
	// crashes: the search reports a crash (NULL dereference, division
	// by zero, stack allocation failure).
	crashes
	// aborts: the search reaches abort().
	aborts
)

func (v verdict) String() string {
	switch v {
	case crashes:
		return "crash"
	case aborts:
		return "abort"
	}
	return "ok"
}

// minisipAnswers is the miniSIP verdict table, transcribed by hand from
// the NULL-argument discipline tags in the library source: every
// [unguarded] or [partial] function must crash within the paper's
// 1000-run budget and every [guarded] one must survive.  The two
// untagged functions are the parser pair of Sec. 4.3: parse_packet
// crashes on the unchecked alloca() result, parse_packet_fixed checks
// it.  41 of the 65 functions crash.
var minisipAnswers = map[string]verdict{
	// URIs.
	"uri_init":            crashes,
	"uri_get_scheme":      crashes,
	"uri_set_scheme":      survives,
	"uri_get_port":        crashes,
	"uri_set_port":        crashes,
	"uri_is_secure":       crashes,
	"uri_default_port":    survives,
	"uri_user_first":      crashes,
	"uri_equal":           crashes,
	"uri_clear":           survives,
	"uri_clone":           crashes,
	"uri_scheme_name_len": survives,
	// Headers.
	"header_init":      crashes,
	"header_get_name":  crashes,
	"header_set":       survives,
	"header_chain_len": survives,
	"header_find":      crashes,
	"header_append":    crashes,
	"header_last":      survives,
	"header_is_empty":  crashes,
	// Messages.
	"msg_init":           crashes,
	"msg_kind":           survives,
	"msg_status":         crashes,
	"msg_is_request":     crashes,
	"msg_from_port":      crashes,
	"msg_to_scheme":      crashes,
	"msg_from_port_safe": survives,
	"msg_body_first":     crashes,
	"msg_set_status":     survives,
	"msg_header_count":   crashes,
	"msg_validate":       survives,
	"msg_swap_endpoints": crashes,
	// Lists.
	"list_init": crashes,
	"list_size": survives,
	"list_push": crashes,
	"list_get":  crashes,
	"list_sum":  survives,
	"list_pop":  crashes,
	// Parser.
	"parse_digits":       crashes,
	"parse_method_byte":  survives,
	"parse_packet":       crashes,
	"parse_packet_fixed": survives,
	"parse_body_offset":  crashes,
	"checksum_items":     survives,
	// Transactions.
	"txn_init":              crashes,
	"txn_state":             survives,
	"txn_advance":           crashes,
	"txn_advance_safe":      survives,
	"txn_request_kind":      crashes,
	"txn_response_status":   crashes,
	"txn_find":              survives,
	"txn_chain_retransmits": crashes,
	"txn_is_final":          survives,
	"txn_note_retransmit":   crashes,
	// Dialogs.
	"dialog_init":             crashes,
	"dialog_call_id":          survives,
	"dialog_accept_seq":       crashes,
	"dialog_next_seq":         crashes,
	"dialog_remote_port":      crashes,
	"dialog_remote_port_safe": survives,
	"dialog_mark_secure":      crashes,
	"dialog_is_secure":        survives,
	"dialog_reverse":          crashes,
	"dialog_matches":          survives,
	"dialog_txn_pressure":     crashes,
}

// gateWitness is a hand-derived input vector reaching SolverGate's
// abort: a+b = 81 > 10, a-b = -81 < -25, c+d = 9, c-d = 31 and
// b+c = 101 > 100, so all five conditions hold.
var gateWitness = map[string]int64{"d0.a": 0, "d0.b": 81, "d0.c": 20, "d0.d": -11}

// progCase is one small program of the paper's examples with its
// hand-verified verdict per function.
type progCase struct {
	name string
	src  string
	want map[string]verdict
}

// progCases are the job service's small sources.  Each verdict follows
// from reading the program (see internal/progs for the derivations);
// each holds at the jobs' 50-run budget.
var progCases = []progCase{
	{"section21", progs.Section21, map[string]verdict{"f": survives, "h": aborts}},
	{"section24", progs.Section24, map[string]verdict{"f": survives}},
	{"foobar", progs.Foobar, map[string]verdict{"foobar": aborts}},
	{"acController", progs.ACController, map[string]verdict{"ac_controller": survives}},
	{"externalEnv", progs.ExternalEnv, map[string]verdict{"watch": aborts}},
	{"listSum", progs.ListSum, map[string]verdict{"sum2": aborts}},
	{"divByZero", progs.DivByZero, map[string]verdict{"quotient": crashes}},
	{"nullChain", progs.NullChain, map[string]verdict{"walk": aborts}},
	{"straightLineDeref", progs.StraightLineDeref, map[string]verdict{"poke": crashes}},
	{"clusters", progs.Clusters, map[string]verdict{"clusters": aborts}},
	{"solverGate", progs.SolverGate, map[string]verdict{"gate": aborts}},
	{"filter", progs.Filter, map[string]verdict{"core": aborts, "entry": aborts}},
}

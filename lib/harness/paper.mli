(** The paper's section-4 evaluation as one report: Figures 2-4,
    Table 1, the section 4.1/4.2 scalars and the ablations, each
    printed as paper vs analytic model vs simulated prototype, then
    the shape checks that assert the paper's conclusions (and a stated
    tolerance against its measured Figure 2 and 3 points).

    Every distinct (workload, {!Hft_core.Params.t}) replicated run and
    bare baseline executes once per report, on the direct-threaded
    backend; each replicated run goes through {!Scenario.replicated}'s
    analyzer and lockstep gates.  Simulated time is a deterministic
    function of the parameters, so the text is byte-stable: it is
    pinned as [test/paper_fixtures/reproduce.expected]. *)

val reproduce : unit -> bool
(** Print the report on stdout.  [true] iff every shape check
    passed. *)

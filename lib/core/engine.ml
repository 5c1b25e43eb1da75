module Ast = Sdds_xpath.Ast
module Event = Sdds_xml.Event
module Obs = Sdds_obs.Obs

type stats = {
  mutable events : int;
  mutable emitted : int;
  mutable delivered : int;
  mutable suppressed : int;
  mutable filtered : int;
  mutable instances : int;
  mutable peak_tokens : int;
  mutable peak_state_words : int;
  mutable token_visits : int;
}

type truth = Pending | Holds | Fails

type inst = {
  var : int;
  cpred : Compile.cpred;
  mutable value : truth;
  mutable candidates : int list list;
      (* disjunction of conjunctions of *unresolved* vars; resolved vars are
         substituted out by the cascade in [resolve] *)
  mutable cand_words : int;  (* sum of [1 + length c] over [candidates] *)
  mutable deps : inst list;
      (* instances with a candidate mentioning [var]; [] once resolved *)
}

type token = Compile.token = {
  key : int;
  path : int;
  pos : int;
  conds : int list;
}

type det3 = Det_deny | Det_allow | Det_pending
type scope3 = In_scope | Out_scope | Scope_pending

(* The class of a token visited on every open: it carries condition vars
   (its conjunction must be re-substituted each event, and it can die) or
   its next test is [*]. Any other class is the tag id the token waits
   for. [Compile.tag_id] answers -1 for a tag no step names, which matches
   exactly the hot class. *)
let hot = -1

(* Frames live in a reusable array; a frame's tokens are slices of two
   shared stacks:

   - the own stack holds the frame's hot tokens and its Child-axis tokens
     with a literal [Name] test and no conditions, in token order, each
     with its class;
   - the descendant stack holds Descendant-axis tokens with a literal
     [Name] test and no conditions. Such a token self-loops unchanged on
     every non-matching open, so a child frame inherits its parent's slice
     and appends its own additions (the O(1) self-loop). On a suppression
     boundary the child starts a fresh region holding only the predicate
     tokens.

   With dispatch disabled every token is hot and own, which reproduces the
   naive linear scan byte for byte — that mode is the differential-test
   oracle. Watchers and anchored instances are slices of the watcher and
   live-instance stacks. Close restores the indices. *)
type frame = {
  mutable ftag : string;
  mutable own_lo : int;
  mutable own_hi : int;
  mutable desc_lo : int;
  mutable desc_hi : int;
  mutable n_desc : int;
  mutable desc_words : int;
  mutable desc_has_allow : bool;  (* the slice holds an allow-rule spine token *)
  mutable desc_has_query : bool;
  mutable n_tokens : int;  (* own + descendant slice, the frame's live tokens *)
  mutable words : int;  (* the frame's share of [state_words] *)
  mutable det : det3;
  mutable scope : scope3;
  mutable suppressed : bool;
  mutable watch_lo : int;
  mutable watch_hi : int;
  mutable inst_lo : int;  (* anchored here: [live.(inst_lo)] .. [live.(inst_hi - 1)] *)
  mutable inst_hi : int;
}

type t = {
  compiled : Compile.t;
  n_spines : int;
  has_query : bool;
  dispatch : bool;
  mutable frames : frame array;
  mutable n_frames : int;
  mutable own : token array;
  mutable own_class : int array;
  mutable desc : token array;
  mutable desc_class : int array;
  mutable w_inst : inst array;
  mutable w_conds : int list array;
  mutable n_watch : int;
  mutable live : inst array;  (* pending-or-anchored instances, sorted by var *)
  mutable n_live : int;
  mutable next_var : int;
  (* Running sums behind [state_words] and the gauges. *)
  mutable frame_words : int;
  mutable inst_words : int;
  mutable n_rdeps : int;  (* instances with a registered dependent *)
  mutable live_tokens : int;
  (* Scratch of the event being processed. *)
  mutable visited : token array;
  mutable n_visited : int;
  mutable fresh : token array;  (* the new frame's tokens *)
  mutable n_fresh : int;
  created_at : int array;  (* pred id -> epoch it was instantiated at *)
  created : inst array;
  mutable epoch : int;
  mutable neg_true : bool;  (* a rule firing without conditions *)
  mutable pos_true : bool;
  mutable query_true : bool;
  mutable fired_neg : Cond.t list;  (* conditional firings, newest first *)
  mutable fired_pos : Cond.t list;
  mutable fired_query : Cond.t list;
  mutable out : Output.t list;  (* Resolve events, newest first *)
  mutable n_out : int;
  mutable sim_path : int array;  (* skip analysis: simulated tokens *)
  mutable sim_pos : int array;
  mutable n_sim : int;
  mutable closed_root : bool;
  (* The evaluation's own accounting: {!stats} copies [st], and
     [bump_peaks] keeps the levels' peaks. {!finish} adds them to the
     scope's [engine.*] cells, once. *)
  st : stats;
  mutable peak_depth : int;
  mutable peak_pending : int;
  obs : Obs.t option;
}

let no_pred = { Compile.ppath = [||]; target = Ast.Exists }

let no_inst =
  { var = -1; cpred = no_pred; value = Fails; candidates = []; cand_words = 0;
    deps = [] }

let no_token = { key = -1; path = -1; pos = 0; conds = [] }

let new_frame () =
  {
    ftag = "";
    own_lo = 0;
    own_hi = 0;
    desc_lo = 0;
    desc_hi = 0;
    n_desc = 0;
    desc_words = 0;
    desc_has_allow = false;
    desc_has_query = false;
    n_tokens = 0;
    words = 0;
    det = Det_deny;
    scope = In_scope;
    suppressed = false;
    watch_lo = 0;
    watch_hi = 0;
    inst_lo = 0;
    inst_hi = 0;
  }

(* Doubling growth, so a warmed-up engine allocates nothing per event. *)
let grown a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let push_own t i tok cls =
  if i = Array.length t.own then begin
    t.own <- grown t.own no_token;
    t.own_class <- grown t.own_class hot
  end;
  t.own.(i) <- tok;
  t.own_class.(i) <- cls

let push_desc t i tok cls =
  if i = Array.length t.desc then begin
    t.desc <- grown t.desc no_token;
    t.desc_class <- grown t.desc_class hot
  end;
  t.desc.(i) <- tok;
  t.desc_class.(i) <- cls

let push_watcher t inst conds =
  let i = t.n_watch in
  if i = Array.length t.w_inst then begin
    t.w_inst <- grown t.w_inst no_inst;
    t.w_conds <- grown t.w_conds []
  end;
  t.w_inst.(i) <- inst;
  t.w_conds.(i) <- conds;
  t.n_watch <- i + 1

let push_visited t tok =
  let i = t.n_visited in
  if i = Array.length t.visited then t.visited <- grown t.visited no_token;
  t.visited.(i) <- tok;
  t.n_visited <- i + 1

let push_fresh t tok =
  let i = t.n_fresh in
  if i = Array.length t.fresh then t.fresh <- grown t.fresh no_token;
  t.fresh.(i) <- tok;
  t.n_fresh <- i + 1

let push_sim t path pos =
  let i = t.n_sim in
  if i = Array.length t.sim_path then begin
    t.sim_path <- grown t.sim_path 0;
    t.sim_pos <- grown t.sim_pos 0
  end;
  t.sim_path.(i) <- path;
  t.sim_pos.(i) <- pos;
  t.n_sim <- i + 1

let rec compare_conds a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a, y :: b -> if x <> y then Int.compare x y else compare_conds a b

let compare_tokens a b =
  if a.key <> b.key then Int.compare a.key b.key
  else if a.pos <> b.pos then Int.compare a.pos b.pos
  else compare_conds a.conds b.conds

(* Sort [a.(0..n-1)] into token order. The buffers arrive nearly sorted
   (tokens are produced in visit order), which is insertion sort's best
   case. *)
let sort_tokens a n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && compare_tokens a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let tok_words tok = 3 + List.length tok.conds

let is_allow_spine t path =
  path < t.n_spines
  &&
  let sp = t.compiled.Compile.spines.(path) in
  sp.Compile.source <> Compile.Query_src && sp.Compile.sign = Rule.Allow

let is_query_spine t path =
  path < t.n_spines
  && t.compiled.Compile.spines.(path).Compile.source = Compile.Query_src

let get_frame t i =
  if i = Array.length t.frames then begin
    let frames = Array.make (2 * i) t.frames.(0) in
    Array.blit t.frames 0 frames 0 i;
    for j = i to (2 * i) - 1 do
      frames.(j) <- new_frame ()
    done;
    t.frames <- frames
  end;
  t.frames.(i)

(* Is [tok] in [desc.(i)] .. [desc.(hi - 1)]? Only a token waiting for
   the same tag can equal it (the naive engine's global [sort_uniq] did
   this dedup of self-loop copies). *)
let rec desc_mem t i hi tok cls =
  i < hi
  && ((t.desc_class.(i) = cls && compare_tokens t.desc.(i) tok = 0)
     || desc_mem t (i + 1) hi tok cls)

(* Push the frame for the node being opened under [parent], holding the
   sorted, duplicate-free [fresh] tokens on top of the inherited
   descendant slice, the watchers pushed since [parent.watch_hi] and the
   instances created since [inst_lo]. *)
let push_frame t parent ~tag ~det ~scope ~suppressed ~inst_lo =
  let f = get_frame t t.n_frames in
  f.ftag <- tag;
  f.det <- det;
  f.scope <- scope;
  f.suppressed <- suppressed;
  f.desc_lo <- parent.desc_lo;
  f.desc_hi <- parent.desc_hi;
  f.n_desc <- parent.n_desc;
  f.desc_words <- parent.desc_words;
  f.desc_has_allow <- parent.desc_has_allow;
  f.desc_has_query <- parent.desc_has_query;
  if suppressed && not parent.suppressed then begin
    (* Suspension: inside a determined subtree only predicate automata
       matter (they can affect outside nodes). The inherited slice is
       filtered into a fresh region; deeper frames inherit that. *)
    f.desc_lo <- parent.desc_hi;
    f.n_desc <- 0;
    f.desc_words <- 0;
    f.desc_has_allow <- false;
    f.desc_has_query <- false;
    for i = parent.desc_lo to parent.desc_hi - 1 do
      let tok = t.desc.(i) in
      if tok.path >= t.n_spines then begin
        push_desc t f.desc_hi tok t.desc_class.(i);
        f.desc_hi <- f.desc_hi + 1;
        f.n_desc <- f.n_desc + 1;
        f.desc_words <- f.desc_words + tok_words tok
      end
    done
  end;
  f.own_lo <- parent.own_hi;
  f.own_hi <- parent.own_hi;
  let own_words = ref 0 in
  for i = 0 to t.n_fresh - 1 do
    let tok = t.fresh.(i) in
    (* A suppressed frame keeps only the predicate tokens. *)
    if tok.path >= t.n_spines || not suppressed then begin
      let cls =
        if (not t.dispatch) || tok.conds <> [] then hot
        else t.compiled.Compile.step_tags.(tok.path).(tok.pos)
      in
      if
        cls = hot
        || t.compiled.Compile.paths.(tok.path).(tok.pos).Compile.axis
           = Ast.Child
      then begin
        push_own t f.own_hi tok cls;
        f.own_hi <- f.own_hi + 1;
        own_words := !own_words + tok_words tok
      end
      else if not (desc_mem t f.desc_lo f.desc_hi tok cls) then begin
        push_desc t f.desc_hi tok cls;
        f.desc_hi <- f.desc_hi + 1;
        f.n_desc <- f.n_desc + 1;
        f.desc_words <- f.desc_words + tok_words tok;
        if is_allow_spine t tok.path then f.desc_has_allow <- true;
        if is_query_spine t tok.path then f.desc_has_query <- true
      end
    end
  done;
  f.watch_lo <- parent.watch_hi;
  f.watch_hi <- t.n_watch;
  let watch_words = ref 0 in
  for i = f.watch_lo to f.watch_hi - 1 do
    watch_words := !watch_words + 2 + List.length t.w_conds.(i)
  done;
  f.inst_lo <- inst_lo;
  f.inst_hi <- t.n_live;
  f.n_tokens <- f.own_hi - f.own_lo + f.n_desc;
  f.words <-
    4 + !own_words + f.desc_words + !watch_words + (f.inst_hi - f.inst_lo);
  t.frame_words <- t.frame_words + f.words;
  t.live_tokens <- t.live_tokens + f.n_tokens;
  t.n_frames <- t.n_frames + 1

let create ?obs ?query ?(dispatch = true) ?compiled rules =
  let compiled =
    match compiled with
    | Some c -> c
    | None -> Compile.compile ?query rules
  in
  let has_query = query <> None in
  let n_preds = Array.length compiled.Compile.preds in
  let t =
    {
      compiled;
      n_spines = Array.length compiled.Compile.spines;
      has_query;
      dispatch;
      frames = Array.init 8 (fun _ -> new_frame ());
      n_frames = 0;
      own = Array.make 32 no_token;
      own_class = Array.make 32 hot;
      desc = Array.make 16 no_token;
      desc_class = Array.make 16 hot;
      w_inst = Array.make 8 no_inst;
      w_conds = Array.make 8 [];
      n_watch = 0;
      live = Array.make 8 no_inst;
      n_live = 0;
      next_var = 0;
      frame_words = 0;
      inst_words = 0;
      n_rdeps = 0;
      live_tokens = 0;
      visited = Array.make 32 no_token;
      n_visited = 0;
      fresh = Array.make 32 no_token;
      n_fresh = 0;
      created_at = Array.make n_preds (-1);
      created = Array.make n_preds no_inst;
      epoch = 0;
      neg_true = false;
      pos_true = false;
      query_true = false;
      fired_neg = [];
      fired_pos = [];
      fired_query = [];
      out = [];
      n_out = 0;
      sim_path = Array.make 16 0;
      sim_pos = Array.make 16 0;
      n_sim = 0;
      closed_root = false;
      st =
        { events = 0; emitted = 0; delivered = 0; suppressed = 0;
          filtered = 0; instances = 0; peak_tokens = 0; peak_state_words = 0;
          token_visits = 0 };
      peak_depth = 0;
      peak_pending = 0;
      obs;
    }
  in
  Array.iter
    (fun canon -> if Array.length canon > 0 then push_fresh t canon.(0))
    compiled.Compile.canon;
  (* The virtual root sits on an empty parent, under the closed-world
     default. *)
  push_frame t (new_frame ()) ~tag:"#root" ~det:Det_deny
    ~scope:(if has_query then Out_scope else In_scope)
    ~suppressed:false ~inst_lo:0;
  t

(* ------------------------------------------------------------------ *)
(* Memory accounting                                                   *)
(* ------------------------------------------------------------------ *)

(* Every term is a running sum kept where it changes: frame words
   (tokens, watchers, anchored instances) on push and pop, instance words
   on creation, candidate changes and removal, and the dependency count on
   registration and resolution. The inherited descendant slice is charged
   to every frame that inherits it, matching what the naive engine
   physically materializes. *)
let state_words t = t.frame_words + t.inst_words + (2 * t.n_rdeps)

let bump_peaks t =
  let st = t.st in
  if t.live_tokens > st.peak_tokens then st.peak_tokens <- t.live_tokens;
  let words = state_words t in
  if words > st.peak_state_words then st.peak_state_words <- words;
  if t.n_frames - 1 > t.peak_depth then t.peak_depth <- t.n_frames - 1;
  if t.n_live > t.peak_pending then t.peak_pending <- t.n_live

(* ------------------------------------------------------------------ *)
(* Condition resolution                                                *)
(* ------------------------------------------------------------------ *)

(* The live instances are numbered in creation order and die when their
   anchor closes, so [live] is sorted by var. -1 if [v] is not live. *)
let rec live_search live v lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let w = live.(mid).var in
    if w = v then mid
    else if w < v then live_search live v (mid + 1) hi
    else live_search live v lo mid

let live_index t v = live_search t.live v 0 t.n_live

let cand_words cands = List.fold_left (fun a c -> a + 1 + List.length c) 0 cands

let set_candidates t inst cands =
  let w = cand_words cands in
  t.inst_words <- t.inst_words + w - inst.cand_words;
  inst.cand_words <- w;
  inst.candidates <- cands

let rec without v = function
  | [] -> []
  | x :: rest -> if x = v then without v rest else x :: without v rest

(* Resolve [inst] to [b]; cascade into instances whose candidates mention
   it. Appends Resolve events to [t.out]. *)
let rec resolve t inst b =
  if inst.value = Pending then begin
    inst.value <- (if b then Holds else Fails);
    t.out <- Output.Resolve (inst.var, b) :: t.out;
    t.n_out <- t.n_out + 1;
    match inst.deps with
    | [] -> ()
    | deps ->
        inst.deps <- [];
        t.n_rdeps <- t.n_rdeps - 1;
        resolve_deps t inst.var b deps
  end

and resolve_deps t v b = function
  | [] -> ()
  | dep :: rest ->
      if dep.value = Pending then begin
        if b then begin
          (* Shortening can merge conjunctions that differed only in the
             resolved var — re-dedup, or an instance whose inner
             predicates keep coming true across sibling subtrees
             accumulates one copy per subtree. *)
          let shortened = List.map (without v) dep.candidates in
          set_candidates t dep (List.sort_uniq compare shortened);
          if List.mem [] shortened then resolve t dep true
        end
        else
          set_candidates t dep
            (List.filter (fun c -> not (List.mem v c)) dep.candidates)
      end;
      resolve_deps t v b rest

let add_rdep t inst dep =
  match inst.deps with
  | [] ->
      inst.deps <- [ dep ];
      t.n_rdeps <- t.n_rdeps + 1
  | deps -> if not (List.memq dep deps) then inst.deps <- dep :: deps

let rec add_rdeps t dep = function
  | [] -> ()
  | v :: rest ->
      let i = live_index t v in
      if i >= 0 then add_rdep t t.live.(i) dep;
      add_rdeps t dep rest

(* Register a fired candidate (a conjunction of condition vars) on a
   predicate instance. Duplicate conjunctions are dropped: they resolve
   identically to the first copy, and without the dedup an instance
   anchored above a large subtree accumulates one copy per matching node
   — pending-predicate state proportional to subtree SIZE. With it, the
   live candidates are distinct subsets of the live (open-anchored)
   condition vars, which is what makes peak state depth-bounded (and the
   static memory bound of the analyzer sound) for predicate rules too.
   [conds] is sorted, so structural equality is canonical. *)
let add_candidate t inst conds =
  if inst.value = Pending then begin
    if conds = [] then resolve t inst true
    else if not (List.mem conds inst.candidates) then begin
      let w = 1 + List.length conds in
      inst.candidates <- conds :: inst.candidates;
      inst.cand_words <- inst.cand_words + w;
      t.inst_words <- t.inst_words + w;
      add_rdeps t inst conds
    end
  end

(* The conjunction that is false: [subst_conds]' answer for a dead token. *)
let dead = [ -1 ]

let rec all_pending t = function
  | [] -> true
  | v :: rest ->
      let i = live_index t v in
      i >= 0 && t.live.(i).value = Pending && all_pending t rest

let rec substituted t = function
  | [] -> []
  | v :: rest -> (
      let i = live_index t v in
      (* The anchor closed; an unresolved-at-close instance is false, and
         a true one would have been substituted eagerly. Treat a missing
         instance as resolved; its recorded value is gone, but tokens only
         outlive instances when the value was false. *)
      if i < 0 then dead
      else
        match t.live.(i).value with
        | Fails -> dead
        | Holds -> substituted t rest
        | Pending ->
            let rest = substituted t rest in
            if rest == dead then dead else v :: rest)

(* Substitute resolved vars out of a conjunction: [dead] when it is false,
   [conds] itself when nothing resolved. *)
let subst_conds t conds =
  if conds = [] || all_pending t conds then conds else substituted t conds

let cond_of_conjunction conds = Cond.conj (List.map Cond.var conds)

(* ------------------------------------------------------------------ *)
(* Open                                                                *)
(* ------------------------------------------------------------------ *)

(* The tokens of [f] that can react to tag [id]: everything hot plus the
   ones waiting for [id]. The own slice is in token order; when
   descendant tokens join, sorting reproduces the naive engine's visit
   order exactly (the unvisited tokens produce no observable effect in
   the naive scan, and predicate-instantiation order — hence var
   numbering and the output byte stream — follows visit order). *)
let collect_visited t f id =
  t.n_visited <- 0;
  for i = f.own_lo to f.own_hi - 1 do
    let cls = t.own_class.(i) in
    if cls = hot || cls = id then push_visited t t.own.(i)
  done;
  let n_own = t.n_visited in
  for i = f.desc_lo to f.desc_hi - 1 do
    if t.desc_class.(i) = id then push_visited t t.desc.(i)
  done;
  if t.n_visited > n_own then sort_tokens t.visited t.n_visited

(* Instantiate predicate [pid] at the node being opened, once per node. *)
let instantiate t pid =
  if t.created_at.(pid) = t.epoch then t.created.(pid)
  else begin
    let cpred = t.compiled.Compile.preds.(pid) in
    let inst =
      { var = t.next_var; cpred; value = Pending; candidates = [];
        cand_words = 0; deps = [] }
    in
    t.next_var <- t.next_var + 1;
    t.st.instances <- t.st.instances + 1;
    t.created_at.(pid) <- t.epoch;
    t.created.(pid) <- inst;
    if t.n_live = Array.length t.live then t.live <- grown t.live no_inst;
    t.live.(t.n_live) <- inst;
    t.n_live <- t.n_live + 1;
    t.inst_words <- t.inst_words + 4;
    if Array.length cpred.Compile.ppath = 0 then push_watcher t inst []
    else
      push_fresh t
        { key = t.n_spines + inst.var; path = t.n_spines + pid; pos = 0;
          conds = [] };
    inst
  end

(* The conditions of a token matching a step that carries predicates:
   [conds] plus the pending instances, or [dead] once one is false. *)
let rec with_preds t acc = function
  | [] -> List.sort_uniq Int.compare acc
  | pid :: rest -> (
      let inst = instantiate t pid in
      match inst.value with
      | Fails -> dead
      | Holds -> with_preds t acc rest
      | Pending -> with_preds t (inst.var :: acc) rest)

let fire t tok conds =
  if tok.path < t.n_spines then begin
    let sp = t.compiled.Compile.spines.(tok.path) in
    match (sp.Compile.source, sp.Compile.sign) with
    | Compile.Query_src, _ ->
        if conds = [] then t.query_true <- true
        else t.fired_query <- cond_of_conjunction conds :: t.fired_query
    | Compile.Rule_src _, Rule.Deny ->
        if conds = [] then t.neg_true <- true
        else t.fired_neg <- cond_of_conjunction conds :: t.fired_neg
    | Compile.Rule_src _, Rule.Allow ->
        if conds = [] then t.pos_true <- true
        else t.fired_pos <- cond_of_conjunction conds :: t.fired_pos
  end
  else begin
    let inst = t.live.(live_index t (tok.key - t.n_spines)) in
    match inst.cpred.Compile.target with
    | Ast.Exists -> add_candidate t inst conds
    | Ast.Value _ -> push_watcher t inst conds
  end

(* [tok] at [pos] carrying [conds], the canonical token when it is a
   condition-free spine token. *)
let token_at t tok pos conds =
  if conds = [] && tok.path < t.n_spines then
    t.compiled.Compile.canon.(tok.path).(pos)
  else if pos = tok.pos && conds == tok.conds then tok
  else { tok with pos; conds }

let advance t tok id =
  let conds = subst_conds t tok.conds in
  if conds != dead then begin
    let path = t.compiled.Compile.paths.(tok.path) in
    let step = path.(tok.pos) in
    if step.Compile.axis = Ast.Descendant then
      push_fresh t (token_at t tok tok.pos conds);
    let stag = t.compiled.Compile.step_tags.(tok.path).(tok.pos) in
    if stag = hot || stag = id then begin
      let conds =
        match step.Compile.step_preds with
        | [] -> conds
        | preds -> with_preds t conds preds
      in
      if conds != dead then
        if tok.pos + 1 = Array.length path then fire t tok conds
        else push_fresh t (token_at t tok (tok.pos + 1) conds)
    end
  end

(* Sort the new tokens into token order and drop duplicates. *)
let settle_fresh t =
  let a = t.fresh in
  sort_tokens a t.n_fresh;
  if t.n_fresh > 1 then begin
    let k = ref 1 in
    for i = 1 to t.n_fresh - 1 do
      if compare_tokens a.(!k - 1) a.(i) <> 0 then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    t.n_fresh <- !k
  end

(* The automata the suppression decision and the skip analysis ask
   about. *)
type automaton = Pred_automaton | Allow_automaton | Query_automaton

let is_automaton t kind path =
  match kind with
  | Pred_automaton -> path >= t.n_spines
  | Allow_automaton -> is_allow_spine t path
  | Query_automaton -> is_query_spine t path

let rec fresh_has t kind i =
  i < t.n_fresh
  && (is_automaton t kind t.fresh.(i).path || fresh_has t kind (i + 1))

let fired is_true = function
  | [] -> if is_true then Cond.tt else Cond.ff
  | l -> if is_true then Cond.tt else Cond.disj l

(* The event's output: its Resolve events, then [last]. *)
let emit t =
  t.st.emitted <- t.st.emitted + t.n_out;
  List.rev t.out

let emit_with t last =
  t.st.emitted <- t.st.emitted + t.n_out + 1;
  List.rev_append t.out [ last ]

let open_tag t tag =
  if t.closed_root then invalid_arg "Engine: event after document end";
  let parent = t.frames.(t.n_frames - 1) in
  let id = Compile.tag_id t.compiled tag in
  t.epoch <- t.epoch + 1;
  t.n_fresh <- 0;
  t.n_watch <- parent.watch_hi;
  t.neg_true <- false;
  t.pos_true <- false;
  t.query_true <- false;
  t.fired_neg <- [];
  t.fired_pos <- [];
  t.fired_query <- [];
  let inst_lo = t.n_live in
  collect_visited t parent id;
  t.st.token_visits <- t.st.token_visits + t.n_visited;
  for i = 0 to t.n_visited - 1 do
    advance t t.visited.(i) id
  done;
  settle_fresh t;
  (* Conflict resolution (Denial-Takes-Precedence at this node,
     Most-Specific via inheritance). A firing without conditions makes
     the disjunction true whatever else fired. *)
  let neg = fired t.neg_true t.fired_neg in
  let pos = fired t.pos_true t.fired_pos in
  let query = fired t.query_true t.fired_query in
  let det =
    match (Cond.to_bool neg, Cond.to_bool pos) with
    | Some true, _ -> Det_deny
    | Some false, Some true -> Det_allow
    | Some false, Some false -> parent.det
    | Some false, None | None, _ -> Det_pending
  in
  let scope =
    if not t.has_query then In_scope
    else
      match (parent.scope, Cond.to_bool query) with
      | In_scope, _ -> In_scope
      | _, Some true -> In_scope
      | Out_scope, Some false -> Out_scope
      | Out_scope, None | Scope_pending, _ -> Scope_pending
  in
  (* The new tokens cover everything the child frame holds except the
     inherited descendant slice, whose spine content the parent's flags
     summarize (the naive engine scans the self-loop copies instead). *)
  let suppressed =
    parent.suppressed
    || (det = Det_deny
       && not (parent.desc_has_allow || fresh_has t Allow_automaton 0))
    || (scope = Out_scope
       && not (parent.desc_has_query || fresh_has t Query_automaton 0))
  in
  push_frame t parent ~tag ~det ~scope ~suppressed ~inst_lo;
  bump_peaks t;
  if suppressed then begin
    t.st.suppressed <- t.st.suppressed + 1;
    emit t
  end
  else begin
    t.st.delivered <- t.st.delivered + 1;
    emit_with t (Output.Open_node { tag; neg; pos; query })
  end

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let value t v =
  if t.n_frames <= 1 then invalid_arg "Engine: text at top level";
  let f = t.frames.(t.n_frames - 1) in
  (* Newest watcher first, as the frame's watcher list always ran. *)
  for i = f.watch_hi - 1 downto f.watch_lo do
    let inst = t.w_inst.(i) in
    if inst.value = Pending then
      match inst.cpred.Compile.target with
      | Ast.Value (op, lit) when Ast.compare_values op v lit ->
          let conds = subst_conds t t.w_conds.(i) in
          if conds != dead then add_candidate t inst conds
      | Ast.Value _ | Ast.Exists -> ()
  done;
  (* Text is only deliverable when the enclosing element can be granted;
     under a determined denial or out of scope it is dead weight. A
     dropped value on an *unsuppressed* frame is counted as filtered so
     the accounting reconciles: events = delivered + suppressed +
     filtered. *)
  if f.suppressed then begin
    t.st.suppressed <- t.st.suppressed + 1;
    emit t
  end
  else if f.det <> Det_deny && f.scope <> Out_scope then begin
    t.st.delivered <- t.st.delivered + 1;
    emit_with t (Output.Text_node v)
  end
  else begin
    t.st.filtered <- t.st.filtered + 1;
    emit t
  end

(* ------------------------------------------------------------------ *)
(* Close                                                               *)
(* ------------------------------------------------------------------ *)

let close t tag =
  if t.n_frames <= 1 then invalid_arg "Engine: close without open";
  let f = t.frames.(t.n_frames - 1) in
  if not (String.equal f.ftag tag) then
    invalid_arg
      (Printf.sprintf "Engine: mismatched </%s>, expected </%s>" tag f.ftag);
  t.n_frames <- t.n_frames - 1;
  t.frame_words <- t.frame_words - f.words;
  t.live_tokens <- t.live_tokens - f.n_tokens;
  (* Pending instances anchored here resolve negatively, newest first:
     the cascade has already emptied any candidate that came true. *)
  for i = f.inst_hi - 1 downto f.inst_lo do
    let inst = t.live.(i) in
    if inst.value = Pending then resolve t inst false
  done;
  for i = f.inst_lo to f.inst_hi - 1 do
    t.inst_words <- t.inst_words - 4 - t.live.(i).cand_words;
    t.live.(i) <- no_inst
  done;
  t.n_live <- f.inst_lo;
  if t.n_frames = 1 then t.closed_root <- true;
  if f.suppressed then begin
    t.st.suppressed <- t.st.suppressed + 1;
    emit t
  end
  else begin
    t.st.delivered <- t.st.delivered + 1;
    emit_with t (Output.Close_node tag)
  end

let feed t ev =
  t.st.events <- t.st.events + 1;
  t.out <- [];
  t.n_out <- 0;
  match ev with
  | Event.Open tag -> open_tag t tag
  | Event.Value v -> value t v
  | Event.Close tag -> close t tag

(* The evaluation ends here: its counts join the scope's cells and each
   level gauge is set to the evaluation's peak. *)
let publish t =
  let st = t.st and obs = t.obs in
  Obs.inc obs "engine.events" st.events;
  Obs.inc obs "engine.emitted" st.emitted;
  Obs.inc obs "engine.delivered" st.delivered;
  Obs.inc obs "engine.suppressed" st.suppressed;
  Obs.inc obs "engine.filtered" st.filtered;
  Obs.inc obs "engine.instances" st.instances;
  Obs.inc obs "engine.token_visits" st.token_visits;
  Obs.set_gauge obs "engine.live_tokens" st.peak_tokens;
  Obs.set_gauge obs "engine.state_words" st.peak_state_words;
  Obs.set_gauge obs "engine.frame_depth" t.peak_depth;
  Obs.set_gauge obs "engine.pending_instances" t.peak_pending

let finish t =
  if not (t.n_frames = 1 && t.closed_root) then
    invalid_arg "Engine.finish: document incomplete";
  publish t

let run ?obs ?query ?dispatch rules events =
  let t = create ?obs ?query ?dispatch rules in
  let outs = List.concat_map (feed t) events in
  finish t;
  outs

(* ------------------------------------------------------------------ *)
(* Skip analysis                                                       *)
(* ------------------------------------------------------------------ *)

exception Not_skippable

(* One-step lookahead: advance [tok] over the subtree's root tag [id]
   without touching engine state, so that a rule firing AT the subtree
   root (e.g. a denial of the whole subtree) is taken into account. Any
   source of pendingness — predicates on a matched step, conditions
   already attached to a matching token — aborts the analysis
   conservatively. Firings land in [neg_true]/[pos_true]/[query_true]. *)
let sim_visit t tok id =
  let conds = subst_conds t tok.conds in
  if conds != dead then begin
    let path = t.compiled.Compile.paths.(tok.path) in
    let step = path.(tok.pos) in
    if step.Compile.axis = Ast.Descendant then
      push_sim t tok.path tok.pos;
    let stag = t.compiled.Compile.step_tags.(tok.path).(tok.pos) in
    if stag = hot || stag = id then begin
      if step.Compile.step_preds <> [] || conds <> [] then
        (* Pending decision or a predicate instance that could need data
           from inside the subtree. *)
        raise Not_skippable;
      if tok.pos + 1 = Array.length path then begin
        if tok.path >= t.n_spines then
          (* A predicate path completing at the root: its instance could
             resolve true here. *)
          raise Not_skippable;
        let sp = t.compiled.Compile.spines.(tok.path) in
        match (sp.Compile.source, sp.Compile.sign) with
        | Compile.Query_src, _ -> t.query_true <- true
        | Compile.Rule_src _, Rule.Deny -> t.neg_true <- true
        | Compile.Rule_src _, Rule.Allow -> t.pos_true <- true
      end
      else push_sim t tok.path (tok.pos + 1)
    end
  end

let sim_alive t kind path pos ~tag_possible ~nonempty =
  is_automaton t kind path
  && Compile.can_complete t.compiled.Compile.paths.(path) ~from:pos
       ~tag_possible ~nonempty

(* Does an automaton of [kind] that can still complete survive in the
   simulated set: the explicitly visited tokens plus the self-looping
   descendant tokens waiting for other tags? *)
let rec sim_alive_in t kind i ~tag_possible ~nonempty =
  i < t.n_sim
  && (sim_alive t kind t.sim_path.(i) t.sim_pos.(i) ~tag_possible ~nonempty
     || sim_alive_in t kind (i + 1) ~tag_possible ~nonempty)

let rec desc_alive_in t kind i hi id ~tag_possible ~nonempty =
  i < hi
  && ((t.desc_class.(i) <> id
      && sim_alive t kind t.desc.(i).path t.desc.(i).pos ~tag_possible
           ~nonempty)
     || desc_alive_in t kind (i + 1) hi id ~tag_possible ~nonempty)

let sim_exists t f id kind ~tag_possible ~nonempty =
  sim_alive_in t kind 0 ~tag_possible ~nonempty
  || desc_alive_in t kind f.desc_lo f.desc_hi id ~tag_possible ~nonempty

(* Dispatch-aware: only the hot tokens and the ones waiting for [tag] go
   through the full lookahead; every other descendant token self-loops
   unchanged (no conditions by construction), so it is consulted in place
   instead of being materialized into the simulated set. Child tokens
   waiting for other tags contribute nothing, exactly as in the naive
   scan. *)
let subtree_skippable t ~tag ~tag_possible ~nonempty =
  let f = t.frames.(t.n_frames - 1) in
  let id = Compile.tag_id t.compiled tag in
  t.n_sim <- 0;
  t.neg_true <- false;
  t.pos_true <- false;
  t.query_true <- false;
  match
    for i = f.own_lo to f.own_hi - 1 do
      let cls = t.own_class.(i) in
      if cls = hot || cls = id then sim_visit t t.own.(i) id
    done;
    for i = f.desc_lo to f.desc_hi - 1 do
      if t.desc_class.(i) = id then sim_visit t t.desc.(i) id
    done
  with
  | exception Not_skippable -> false
  | () ->
      let det =
        if t.neg_true then Det_deny else if t.pos_true then Det_allow else f.det
      in
      let scope =
        if (not t.has_query) || t.query_true then In_scope else f.scope
      in
      (not (sim_exists t f id Pred_automaton ~tag_possible ~nonempty))
      && (f.suppressed
         || (det = Det_deny
            && not (sim_exists t f id Allow_automaton ~tag_possible ~nonempty))
         || (scope = Out_scope
            && not (sim_exists t f id Query_automaton ~tag_possible ~nonempty)))

(* A copy: the caller's record is not live state. *)
let stats t = { t.st with events = t.st.events }

let depth t = t.n_frames - 1

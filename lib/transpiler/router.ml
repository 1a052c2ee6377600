type result = {
  physical : Quantum.Circuit.t;
  swaps_added : int;
  final_layout : Layout.t;
}

let lookahead_window = 12
let lookahead_weight = 0.5

(* SWAPs without a routed gate, per device qubit, after which the release
   valve fires. The longest stall on any registered circuit or engine
   artifact is 44 SWAPs, so the valve only ever fires on a livelock. *)
let stall_factor = 10

let route device layout (circuit : Quantum.Circuit.t) =
  let layout = Layout.copy layout in
  (* [apply_swap] updates these arrays in place. *)
  let l2p = layout.Layout.l2p and p2l = layout.Layout.p2l in
  let dist = device.Hardware.Device.dist in
  let nbrs = device.Hardware.Device.nbrs in
  let nbr_error = device.Hardware.Device.nbr_error in
  let adj = Quantum.Dag.build circuit in
  let n = Quantum.Dag.num_nodes adj in
  let nl = circuit.num_qubits in
  (* Logical endpoints of each two-qubit gate; -1 for the other gates. *)
  let qa = Array.make n (-1) and qb = Array.make n (-1) in
  for i = 0 to n - 1 do
    match circuit.gates.(i).Quantum.Gate.kind with
    | Quantum.Gate.Cx (a, b)
    | Quantum.Gate.Cz (a, b)
    | Quantum.Gate.Rzz (_, a, b)
    | Quantum.Gate.Swap (a, b) ->
      qa.(i) <- a;
      qb.(i) <- b
    | _ -> ()
  done;
  let indeg = Array.init n (Quantum.Dag.in_degree adj) in
  (* The frontier is a stack of dependence-free gates, [frontier.(0 ..
     !n_frontier - 1)], visited from the top down; a completed gate
     pushes the successors it frees. Each gate is pushed once. *)
  let frontier = Array.make (max 1 n) 0 and n_frontier = ref 0 in
  let push i =
    frontier.(!n_frontier) <- i;
    incr n_frontier
  in
  for i = n - 1 downto 0 do
    if indeg.(i) = 0 then push i
  done;
  let out =
    Quantum.Circuit.Builder.create
      ~num_qubits:(Hardware.Device.num_qubits device)
      ~num_clbits:circuit.num_clbits
  in
  let swaps = ref 0 in
  let complete i =
    for e = adj.succ_start.(i) to adj.succ_start.(i + 1) - 1 do
      let j = adj.succ_ids.(e) in
      indeg.(j) <- indeg.(j) - 1;
      if indeg.(j) = 0 then push j
    done
  in
  let executable i = qa.(i) < 0 || dist.(l2p.(qa.(i))).(l2p.(qb.(i))) = 1 in
  let phys q = l2p.(q) in
  let emit i =
    Quantum.Circuit.Builder.add out
      (Quantum.Gate.map_qubits phys circuit.gates.(i).Quantum.Gate.kind);
    complete i
  in
  (* The pairs a candidate SWAP is scored on: the blocked front pairs and
     the first [lookahead_window] two-qubit gates of a breadth-first walk
     from the frontier. Both depend on the frontier alone, so they are
     collected once per stall. [inc_*] is a per-logical-qubit incidence
     list over both: entry [e] of qubit [l] names the pair's other qubit
     [inc_other.(e)] and whether it is a front pair. *)
  let front_a = Array.make (max 1 nl) 0 and front_b = Array.make (max 1 nl) 0 in
  let look_a = Array.make lookahead_window 0 and look_b = Array.make lookahead_window 0 in
  let n_front = ref 0 and n_look = ref 0 in
  let inc_cap = (2 * nl) + (2 * lookahead_window) in
  let inc_head = Array.make (max 1 nl) (-1) in
  let inc_other = Array.make inc_cap 0 and inc_next = Array.make inc_cap 0 in
  let inc_front = Array.make inc_cap false in
  let n_inc = ref 0 in
  (* The walk's queue: the frontier plus at most every DAG edge once per
     walk, as each node is expanded once. *)
  let seen = Array.make n (-1) in
  let queue = Array.make (max 1 (n + Array.length adj.succ_ids)) 0 in
  let collections = ref 0 in
  let add_inc l other front =
    let e = !n_inc in
    inc_other.(e) <- other;
    inc_front.(e) <- front;
    inc_next.(e) <- inc_head.(l);
    inc_head.(l) <- e;
    n_inc := e + 1
  in
  let link a b front =
    add_inc a b front;
    add_inc b a front
  in
  let collect () =
    for k = 0 to !n_front - 1 do
      inc_head.(front_a.(k)) <- -1;
      inc_head.(front_b.(k)) <- -1
    done;
    for k = 0 to !n_look - 1 do
      inc_head.(look_a.(k)) <- -1;
      inc_head.(look_b.(k)) <- -1
    done;
    n_inc := 0;
    n_front := 0;
    for f = !n_frontier - 1 downto 0 do
      let i = frontier.(f) in
      if qa.(i) >= 0 then begin
        front_a.(!n_front) <- qa.(i);
        front_b.(!n_front) <- qb.(i);
        incr n_front;
        link qa.(i) qb.(i) true
      end
    done;
    (* Nodes are marked seen when popped, as a node reached along two
       paths is queued twice. *)
    incr collections;
    n_look := 0;
    let head = ref 0 and tail = ref 0 in
    for f = !n_frontier - 1 downto 0 do
      queue.(!tail) <- frontier.(f);
      incr tail
    done;
    while !head < !tail && !n_look < lookahead_window do
      let i = queue.(!head) in
      incr head;
      if seen.(i) <> !collections then begin
        seen.(i) <- !collections;
        if qa.(i) >= 0 then begin
          look_a.(!n_look) <- qa.(i);
          look_b.(!n_look) <- qb.(i);
          incr n_look;
          link qa.(i) qb.(i) false
        end;
        for e = adj.succ_start.(i) to adj.succ_start.(i + 1) - 1 do
          queue.(!tail) <- adj.succ_ids.(e);
          incr tail
        done
      end
    done
  in
  let sum_dist a b len =
    let s = ref 0 in
    for k = 0 to len - 1 do
      s := !s + dist.(l2p.(a.(k))).(l2p.(b.(k)))
    done;
    !s
  in
  (* Summed front and lookahead distances under the current layout. *)
  let base_front = ref 0 and base_look = ref 0 in
  let pair_scores = ref 0 in
  let delta_front = ref 0 and delta_look = ref 0 in
  (* Adds to [delta_*] the change of every pair of logical [l], moving
     from distance row [from_row] to [to_row], whose other qubit is
     neither [l1] nor [l2] (a pair on both moves keeps its distance). *)
  let accumulate l l1 l2 from_row to_row =
    let e = ref inc_head.(l) in
    while !e >= 0 do
      let x = inc_other.(!e) in
      if x <> l1 && x <> l2 then begin
        let px = l2p.(x) in
        let d = to_row.(px) - from_row.(px) in
        if inc_front.(!e) then delta_front := !delta_front + d
        else delta_look := !delta_look + d;
        incr pair_scores
      end;
      e := inc_next.(!e)
    done
  in
  (* Stalled SWAPs, oldest first, as pairs [pend.(2k)], [pend.(2k + 1)]:
     emitted once a gate routes, undone newest first if the release valve
     fires. *)
  let pend = ref (Array.make 64 0) and n_pend = ref 0 and stalled = ref 0 in
  let swap p1 p2 =
    Guard.Inject.hit "route.swap";
    Layout.apply_swap layout p1 p2;
    if (2 * !n_pend) + 2 > Array.length !pend then begin
      let bigger = Array.make (2 * Array.length !pend) 0 in
      Array.blit !pend 0 bigger 0 (2 * !n_pend);
      pend := bigger
    end;
    !pend.(2 * !n_pend) <- p1;
    !pend.((2 * !n_pend) + 1) <- p2;
    incr n_pend
  in
  let flush () =
    for k = 0 to !n_pend - 1 do
      Quantum.Circuit.Builder.swap out !pend.(2 * k) !pend.((2 * k) + 1)
    done;
    swaps := !swaps + !n_pend;
    n_pend := 0;
    stalled := 0
  in
  let stall_limit = stall_factor * Hardware.Device.num_qubits device in
  let valves = ref 0 in
  (* SABRE's release valve: undo the stalled SWAPs, then walk the closest
     blocked front pair together along a shortest path. *)
  let release () =
    incr valves;
    for k = !n_pend - 1 downto 0 do
      Layout.apply_swap layout !pend.(2 * k) !pend.((2 * k) + 1)
    done;
    n_pend := 0;
    stalled := 0;
    let pair_dist k = dist.(l2p.(front_a.(k))).(l2p.(front_b.(k))) in
    let closest = ref 0 in
    for k = 1 to !n_front - 1 do
      if pair_dist k < pair_dist !closest then closest := k
    done;
    let a = front_a.(!closest) and b = front_b.(!closest) in
    while dist.(l2p.(a)).(l2p.(b)) > 1 do
      let pa = l2p.(a) and pb = l2p.(b) in
      let closer = dist.(pa).(pb) - 1 in
      (* The first neighbour of [pa], in table order, one step closer. *)
      let ns = nbrs.(pa) in
      let j = ref 0 in
      while !j < Array.length ns && dist.(ns.(!j)).(pb) <> closer do
        incr j
      done;
      if !j = Array.length ns then
        invalid_arg "Router.route: front pair on disconnected qubits";
      swap pa ns.(!j)
    done
  in
  let last1 = ref (-1) and last2 = ref (-1) in
  let progress = ref true and dirty = ref true in
  (* A diverging search trips the step budget as a typed, recoverable
     error instead of an untyped failwith; the same ticker also honours
     any cooperative wall-clock deadline. *)
  let swap_budget = (100 * n) + 1000 in
  let tick =
    Guard.Budget.ticker ~stage:"transpiler.router" ~site:"route.swap"
      ~limit:swap_budget ()
  in
  let ready = Array.make (max 1 n) 0 in
  while !n_frontier > 0 do
    tick ();
    if not !progress then begin
      (* Blocked: every frontier gate is a non-adjacent two-qubit gate. *)
      if !dirty then begin
        collect ();
        base_front := sum_dist front_a front_b !n_front;
        base_look := sum_dist look_a look_b !n_look;
        dirty := false
      end;
      if !stalled >= stall_limit then release ()
      else begin
        (* Candidates are the edges at each front pair's qubits, in
           frontier order (a pair's first qubit, then its second); the
           first strictly best score wins. *)
        let best1 = ref (-1) and best2 = ref (-1) and best_s = ref 0. in
        let best_front = ref 0 and best_look = ref 0 in
        for c = 0 to (2 * !n_front) - 1 do
          let l1 = if c land 1 = 0 then front_a.(c lsr 1) else front_b.(c lsr 1) in
          let p1 = l2p.(l1) in
          let ns = nbrs.(p1) in
          for j = 0 to Array.length ns - 1 do
            let p2 = ns.(j) in
            if not ((p1 = !last1 && p2 = !last2) || (p2 = !last1 && p1 = !last2)) then begin
              let l2 = p2l.(p2) in
              delta_front := 0;
              delta_look := 0;
              accumulate l1 l1 l2 dist.(p1) dist.(p2);
              if l2 >= 0 then accumulate l2 l1 l2 dist.(p2) dist.(p1);
              let front = !base_front + !delta_front in
              let look = !base_look + !delta_look in
              let s =
                float_of_int front
                +. (lookahead_weight *. float_of_int look)
                (* error-aware tie-break: prefer low-error links *)
                +. (0.01 *. nbr_error.(p1).(j))
              in
              if !best1 < 0 || s < !best_s then begin
                best1 := p1;
                best2 := p2;
                best_s := s;
                best_front := front;
                best_look := look
              end
            end
          done
        done;
        if !best1 >= 0 then begin
          swap !best1 !best2;
          incr stalled;
          base_front := !best_front;
          base_look := !best_look;
          last1 := !best1;
          last2 := !best2
        end
        else begin
          (* Only the undone inverse of the last swap remains; allow it. *)
          last1 := -1;
          last2 := -1
        end
      end
    end;
    progress := false;
    (* Split the frontier in place: blocked gates stay on the stack in
       order, ready ones go to [ready] bottom up and are emitted top
       down. Repeat while a split finds a ready gate. *)
    let split = ref true in
    while !split do
      let n_ready = ref 0 and n_blocked = ref 0 in
      for f = 0 to !n_frontier - 1 do
        let i = frontier.(f) in
        if executable i then begin
          ready.(!n_ready) <- i;
          incr n_ready
        end
        else begin
          frontier.(!n_blocked) <- i;
          incr n_blocked
        end
      done;
      if !n_ready = 0 then split := false
      else begin
        progress := true;
        dirty := true;
        last1 := -1;
        last2 := -1;
        flush ();
        n_frontier := !n_blocked;
        for r = !n_ready - 1 downto 0 do
          emit ready.(r)
        done
      end
    done
  done;
  Obs.Metrics.incr ~by:!pair_scores "route.pair_scores";
  if !valves > 0 then Obs.Metrics.incr ~by:!valves "route.release_valve";
  { physical = Quantum.Circuit.Builder.build out; swaps_added = !swaps; final_layout = layout }

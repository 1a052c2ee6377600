module B = Quantum.Circuit.Builder

(* Block-structured generators get their reuse headroom by construction:
   wires whose gates are time-disjoint (src's last gate precedes dst's
   first, no shared gate) satisfy CaQR Conditions 1-2 automatically, so
   a farm of sequential, wire-disjoint blocks can always be folded down
   to roughly one block's width. The QAOA generator instead leans on
   sparsity: average degree ~3 keeps most qubit pairs non-interacting,
   and measuring each vertex as soon as its last edge is emitted
   produces early-finishing wires that late-starting vertices reuse. *)

let reference_gamma = 0.7
let reference_beta = 0.3

(* QAOA max-cut on a power-law graph, emitted as a *regular* circuit:
   one Rzz per edge in sorted edge order, H lazily before a vertex's
   first gate, mixer + measurement immediately after its last edge. The
   commuting phase wall makes this reordering semantics-preserving. *)
let qaoa_powerlaw ~seed n =
  if n < 3 then invalid_arg "Large.qaoa_powerlaw: need at least 3 qubits";
  let density = 3.0 /. float_of_int (n - 1) in
  let g = Galg.Gen.power_law ~seed n ~density in
  let b = B.create ~num_qubits:n ~num_clbits:n in
  let remaining = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      remaining.(u) <- remaining.(u) + 1;
      remaining.(v) <- remaining.(v) + 1)
    (Galg.Graph.edges g);
  let started = Array.make n false and finished = Array.make n false in
  let start q =
    if not started.(q) then begin
      started.(q) <- true;
      B.h b q
    end
  in
  let finish q =
    if not finished.(q) then begin
      finished.(q) <- true;
      B.rx b (2. *. reference_beta) q;
      B.measure b q q
    end
  in
  List.iter
    (fun (u, v) ->
      start u;
      start v;
      B.rzz b reference_gamma u v;
      remaining.(u) <- remaining.(u) - 1;
      remaining.(v) <- remaining.(v) - 1;
      if remaining.(u) = 0 then finish u;
      if remaining.(v) = 0 then finish v)
    (List.sort compare (Galg.Graph.edges g));
  (* Isolated vertices (possible after the edge-budget trim). *)
  for q = 0 to n - 1 do
    start q;
    finish q
  done;
  B.build b

(* One k-bit Cuccaro ripple-carry adder on wires [base .. base+2k+1],
   same construction as {!Extra.ripple_adder}, measured at block end. *)
let adder_block b ~base k =
  let c0 = base in
  let a_q i = base + 1 + i in
  let b_q i = base + 1 + k + i in
  let z = base + (2 * k) + 1 in
  let maj c y x =
    B.cx b x y;
    B.cx b x c;
    Revlib.ccx b c y x
  in
  let uma c y x =
    Revlib.ccx b c y x;
    B.cx b x c;
    B.cx b c y
  in
  for i = 0 to k - 1 do
    B.x b (a_q i)
  done;
  B.x b (b_q 0);
  maj c0 (b_q 0) (a_q 0);
  for i = 1 to k - 1 do
    maj (a_q (i - 1)) (b_q i) (a_q i)
  done;
  B.cx b (a_q (k - 1)) z;
  for i = k - 1 downto 1 do
    uma (a_q (i - 1)) (b_q i) (a_q i)
  done;
  uma c0 (b_q 0) (a_q 0);
  for w = base to base + (2 * k) + 1 do
    B.measure b w w
  done

(* Width of one adder block: a 15-bit Cuccaro adder spans 2*15+2 = 32
   wires, so farm widths are multiples of 32. *)
let adder_bits = 15
let adder_width = (2 * adder_bits) + 2

let cuccaro_farm n =
  if n < adder_width || n mod adder_width <> 0 then
    invalid_arg
      (Printf.sprintf "Large.cuccaro_farm: width must be a multiple of %d"
         adder_width);
  let b = B.create ~num_qubits:n ~num_clbits:n in
  for blk = 0 to (n / adder_width) - 1 do
    adder_block b ~base:(blk * adder_width) adder_bits
  done;
  B.build b

(* One k-qubit QFT block on wires [base .. base+k-1] — the same gate
   sequence as {!Extra.qft}, measured at block end. *)
let qft_block b ~base k =
  B.x b base;
  if k > 2 then B.x b (base + k - 1);
  for i = 0 to k - 1 do
    B.h b (base + i);
    for j = i + 1 to k - 1 do
      let theta = Float.pi /. float_of_int (1 lsl (j - i)) in
      B.rz b (theta /. 2.) (base + i);
      B.rz b (theta /. 2.) (base + j);
      B.rzz b (-.theta /. 2.) (base + i) (base + j)
    done
  done;
  for w = base to base + k - 1 do
    B.measure b w w
  done

let qft_block_size = 10

let qft_layered n =
  if n < qft_block_size || n mod qft_block_size <> 0 then
    invalid_arg
      (Printf.sprintf "Large.qft_layered: width must be a multiple of %d"
         qft_block_size);
  let b = B.create ~num_qubits:n ~num_clbits:n in
  for blk = 0 to (n / qft_block_size) - 1 do
    qft_block b ~base:(blk * qft_block_size) qft_block_size
  done;
  B.build b

(* Random dynamic circuit: the fuzz generator with its size knobs opened
   to the large regime — heavy mid-circuit measurement, no barriers, no
   tail measure-all, so reuse opportunities appear mid-stream. *)
let rand_dyn ~seed n =
  if n < 2 then invalid_arg "Large.rand_dyn: need at least 2 qubits";
  let cfg =
    {
      Fuzz.Gen.default with
      min_qubits = n;
      max_qubits = n;
      min_gates = 3 * n;
      max_gates = 4 * n;
      w_measure = 10;
      w_barrier = 0;
      p_share_clbit = 0.1;
      p_measure_tail = 0.;
    }
  in
  Fuzz.Gen.circuit cfg (Exec.Prng.make seed)

type gen = {
  name : string;
  description : string;
  build : unit -> Quantum.Circuit.t;
}

(* Registered sizes are the ones the 2s quality dial handles end-to-end
   (engine + routing) with width strictly below baseline; the raw
   generators themselves scale to 1000 qubits (exercised by
   test_large_gen's round-trip and DAG-budget suites). *)
let sizes = [ 100; 250 ]
let adder_sizes = [ 64; 128; 256 ]

let generators () =
  List.map
    (fun n ->
      {
        name = Printf.sprintf "qaoa-powerlaw-%d" n;
        description =
          Printf.sprintf
            "QAOA max-cut on a %d-vertex power-law graph (avg degree 3), \
             regular emission with per-vertex early measurement"
            n;
        build = (fun () -> qaoa_powerlaw ~seed:(7 + n) n);
      })
    sizes
  @ List.map
      (fun n ->
        {
          name = Printf.sprintf "cuccaro-%d" n;
          description =
            Printf.sprintf
              "farm of %d sequential %d-bit Cuccaro ripple-carry adders \
               (%d wires each)"
              (n / adder_width) adder_bits adder_width;
          build = (fun () -> cuccaro_farm n);
        })
      adder_sizes
  @ List.map
      (fun n ->
        {
          name = Printf.sprintf "qft-layered-%d" n;
          description =
            Printf.sprintf
              "%d sequential %d-qubit QFT blocks on disjoint wires"
              (n / qft_block_size) qft_block_size;
          build = (fun () -> qft_layered n);
        })
      sizes
  @ List.map
      (fun n ->
        {
          name = Printf.sprintf "rand-dyn-%d" n;
          description =
            Printf.sprintf
              "random dynamic circuit, %d qubits, ~%d gates, heavy \
               mid-circuit measurement (fuzz generator, fixed seed)"
              n (3 * n);
          build = (fun () -> rand_dyn ~seed:(11 + n) n);
        })
      sizes

let find_opt name = List.find_opt (fun g -> g.name = name) (generators ())

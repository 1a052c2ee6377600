type kind = Regular | Commutable of Galg.Graph.t

type entry = {
  name : string;
  kind : kind;
  circuit : Quantum.Circuit.t;
  description : string;
}

let input e =
  match e.kind with
  | Regular -> Caqr.Engine.Regular e.circuit
  | Commutable g -> Caqr.Engine.Commutable g

let regular () =
  [
    {
      name = "RD-32";
      kind = Regular;
      circuit = Revlib.rd32 ();
      description = "3-bit full adder (RevLib rd32 reconstruction)";
    };
    {
      name = "4mod5";
      kind = Regular;
      circuit = Revlib.four_mod5 ();
      description = "divisibility-by-5 oracle (RevLib 4mod5 reconstruction)";
    };
    {
      name = "Multiply_13";
      kind = Regular;
      circuit = Revlib.multiply_13 ();
      description = "3x3-bit carry-less multiplier on 13 qubits";
    };
    {
      name = "System_9";
      kind = Regular;
      circuit = Revlib.system_9 ();
      description = "layered reversible pipeline on 9 qubits";
    };
    {
      name = "BV_10";
      kind = Regular;
      circuit = Bv.circuit 10;
      description = "10-qubit Bernstein-Vazirani";
    };
    {
      name = "CC_10";
      kind = Regular;
      circuit = Revlib.cc 10;
      description = "10-qubit counterfeit-coin-style star circuit";
    };
    {
      name = "XOR_5";
      kind = Regular;
      circuit = Revlib.xor5 ();
      description = "4-bit parity onto a target qubit";
    };
  ]

let qaoa ~seed n ~density =
  let problem = Qaoa.Maxcut.random ~seed n ~density in
  {
    name = Printf.sprintf "QAOA%d-%.1f" n density;
    kind = Commutable problem.Qaoa.Maxcut.graph;
    circuit = Qaoa.Ansatz.reference problem;
    description =
      Printf.sprintf "QAOA max-cut, random graph n=%d density=%.2f" n density;
  }

let qaoa_table1 () =
  List.map (fun n -> qaoa ~seed:(40 + n) n ~density:0.3) [ 5; 10; 15; 20; 25 ]

let table1 () = regular () @ qaoa_table1 ()

let entry_of_gen (g : Large.gen) =
  {
    name = g.Large.name;
    kind = Regular;
    circuit = g.Large.build ();
    description = g.Large.description;
  }

let find name =
  match List.find_opt (fun e -> e.name = name) (table1 ()) with
  | Some e -> e
  | None ->
    (* Large circuits build on demand: resolving a Table-1 name never
       pays for 1000-qubit construction. *)
    (match Large.find_opt name with
     | Some g -> entry_of_gen g
     | None -> raise Not_found)

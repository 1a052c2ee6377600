type input = Regular of Quantum.Circuit.t | Commutable of Galg.Graph.t

type step = {
  usage : int;
  circuit : Quantum.Circuit.t;
  pairs : Reuse.pair list;
  depth : int;
}

let make_step circuit pairs =
  {
    usage = Reuse.qubit_usage circuit;
    circuit;
    pairs;
    depth = Quantum.Circuit.depth circuit;
  }

type artifact = {
  circuit : Quantum.Circuit.t;
  routed : bool;
  pairs : Reuse.pair list option;
  reuses : int;
  width : int;
  slack : int;
  quality : Quality.t;
}

let of_pairs ?(quality = Quality.Exact) ~width circuit pairs =
  {
    circuit;
    routed = false;
    pairs = Some pairs;
    reuses = List.length pairs;
    width;
    slack = 0;
    quality;
  }

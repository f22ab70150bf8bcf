type node = Netgraph.Graph.node
type group = int

type req_kind = Join | Leave | Graft

type t =
  | Data of { group : group; src : node; seq : int }
  | Encap of { group : group; src : node; seq : int }
  | Scmp_join of { group : group; dr : node; seq : int }
  | Scmp_leave of { group : group; dr : node; seq : int }
  | Scmp_graft of { group : group; dr : node; seq : int }
  | Scmp_req_ack of
      { group : group; dr : node; kind : req_kind; seq : int; epoch : int }
  | Scmp_tree of { group : group; epoch : int; packet : Tree_packet.t }
  | Scmp_branch of { group : group; epoch : int; path : node list }
  | Scmp_prune of { group : group; from : node; epoch : int }
  | Scmp_invalidate of { group : group; token : int; epoch : int }
  | Scmp_reliable of { token : int; inner : t }
  | Scmp_ack of { token : int }
  | Scmp_replicate of { group : group; dr : node; joined : bool; epoch : int }
  | Scmp_heartbeat of { from : node; seq : int; epoch : int }
  | Scmp_heartbeat_ack of { seq : int; epoch : int }
  | Scmp_announce of { auth : node; epoch : int }
  | Scmp_resync of
      { group : group;
        token : int;
        members : node list;
        left : node list;
        seen : (node * int) list;
        relays : node list;
        epoch : int }
  | Pim_join of { group : group; src : node option; from : node }
  | Pim_prune of { group : group; src : node option; rpt : bool; from : node }
  | Cbt_join of { group : group; joiner : node; path : node list }
  | Cbt_join_ack of { group : group; path : node list }
  | Cbt_quit of { group : group; from : node }
  | Dvmrp_prune of { group : group; src : node; from : node }
  | Dvmrp_graft of { group : group; src : node; from : node }
  | Mospf_lsa of { group : group; router : node; joined : bool; seq : int }
  | Hpim_sync of
      { group : group; src : node; from : node; seq : int; interested : bool }
  | Hpim_ack of { group : group; src : node; from : node; seq : int }

let req_kind_label = function Join -> "join" | Leave -> "leave" | Graft -> "graft"

let classify = function
  | Data _ | Encap _ -> `Data
  | Scmp_join _ | Scmp_leave _ | Scmp_graft _ | Scmp_req_ack _ | Scmp_tree _
  | Scmp_branch _ | Scmp_prune _ | Scmp_invalidate _ | Scmp_reliable _
  | Scmp_ack _ | Scmp_replicate _ | Scmp_heartbeat _ | Scmp_heartbeat_ack _
  | Scmp_announce _ | Scmp_resync _
  | Pim_join _ | Pim_prune _ | Cbt_join _ | Cbt_join_ack _ | Cbt_quit _
  | Dvmrp_prune _ | Dvmrp_graft _ | Mospf_lsa _ | Hpim_sync _ | Hpim_ack _ ->
    `Control

let rec group_of = function
  | Data { group; _ }
  | Encap { group; _ }
  | Scmp_join { group; _ }
  | Scmp_leave { group; _ }
  | Scmp_graft { group; _ }
  | Scmp_req_ack { group; _ }
  | Scmp_tree { group; _ }
  | Scmp_branch { group; _ }
  | Scmp_prune { group; _ }
  | Scmp_invalidate { group; _ }
  | Scmp_replicate { group; _ }
  | Scmp_resync { group; _ }
  | Pim_join { group; _ }
  | Pim_prune { group; _ }
  | Cbt_join { group; _ }
  | Cbt_join_ack { group; _ }
  | Cbt_quit { group; _ }
  | Dvmrp_prune { group; _ }
  | Dvmrp_graft { group; _ }
  | Mospf_lsa { group; _ }
  | Hpim_sync { group; _ }
  | Hpim_ack { group; _ } ->
    group
  | Scmp_reliable { inner; _ } -> group_of inner
  | Scmp_ack _ | Scmp_heartbeat _ | Scmp_heartbeat_ack _ | Scmp_announce _ ->
    -1

(* Epoch-1 frames elide the suffix: the fault-free trace stays
   byte-identical to the pre-epoch format, and the suffix appears only
   where a takeover actually bumped the authority epoch. *)
let ep_suffix epoch = if epoch <= 1 then "" else Printf.sprintf " e%d" epoch

let rec describe = function
  | Data { group; src; seq } -> Printf.sprintf "DATA g%d s%d#%d" group src seq
  | Encap { group; src; seq } -> Printf.sprintf "ENCAP g%d s%d#%d" group src seq
  | Scmp_join { group; dr; seq } ->
    Printf.sprintf "SCMP-JOIN g%d dr%d #%d" group dr seq
  | Scmp_leave { group; dr; seq } ->
    Printf.sprintf "SCMP-LEAVE g%d dr%d #%d" group dr seq
  | Scmp_graft { group; dr; seq } ->
    Printf.sprintf "SCMP-GRAFT g%d dr%d #%d" group dr seq
  | Scmp_req_ack { group; dr; kind; seq; epoch } ->
    Printf.sprintf "SCMP-REQ-ACK g%d dr%d %s #%d%s" group dr
      (req_kind_label kind) seq (ep_suffix epoch)
  | Scmp_tree { group; epoch; packet } ->
    Printf.sprintf "SCMP-TREE g%d len%d%s" group (Tree_packet.size packet)
      (ep_suffix epoch)
  | Scmp_branch { group; epoch; path } ->
    Printf.sprintf "SCMP-BRANCH g%d [%s]%s" group
      (String.concat "," (List.map string_of_int path))
      (ep_suffix epoch)
  | Scmp_prune { group; from; epoch } ->
    Printf.sprintf "SCMP-PRUNE g%d from%d%s" group from (ep_suffix epoch)
  | Scmp_invalidate { group; token; epoch } ->
    Printf.sprintf "SCMP-INVAL g%d t%d%s" group token (ep_suffix epoch)
  | Scmp_reliable { token; inner } ->
    Printf.sprintf "SCMP-REL t%d %s" token (describe inner)
  | Scmp_ack { token } -> Printf.sprintf "SCMP-ACK t%d" token
  | Scmp_replicate { group; dr; joined; epoch } ->
    Printf.sprintf "SCMP-REPL g%d dr%d %s%s" group dr
      (if joined then "join" else "leave")
      (ep_suffix epoch)
  | Scmp_heartbeat { from; seq; epoch } ->
    Printf.sprintf "SCMP-HB from%d #%d%s" from seq (ep_suffix epoch)
  | Scmp_heartbeat_ack { seq; epoch } ->
    Printf.sprintf "SCMP-HB-ACK #%d%s" seq (ep_suffix epoch)
  | Scmp_announce { auth; epoch } ->
    Printf.sprintf "SCMP-ANNOUNCE auth%d e%d" auth epoch
  | Scmp_resync { group; token; members; left; relays; epoch; _ } ->
    Printf.sprintf "SCMP-RESYNC g%d t%d m[%s] l[%s] r[%s] e%d" group token
      (String.concat "," (List.map string_of_int members))
      (String.concat "," (List.map string_of_int left))
      (String.concat "," (List.map string_of_int relays))
      epoch
  | Pim_join { group; src; from } ->
    Printf.sprintf "PIM-JOIN g%d %s from%d" group
      (match src with None -> "(*)" | Some s -> Printf.sprintf "(S=%d)" s)
      from
  | Pim_prune { group; src; rpt; from } ->
    Printf.sprintf "PIM-PRUNE g%d %s%s from%d" group
      (match src with None -> "(*)" | Some s -> Printf.sprintf "(S=%d)" s)
      (if rpt then ",rpt" else "")
      from
  | Cbt_join { group; joiner; _ } -> Printf.sprintf "CBT-JOIN g%d j%d" group joiner
  | Cbt_join_ack { group; path } ->
    Printf.sprintf "CBT-ACK g%d [%s]" group
      (String.concat "," (List.map string_of_int path))
  | Cbt_quit { group; from } -> Printf.sprintf "CBT-QUIT g%d from%d" group from
  | Dvmrp_prune { group; src; from } ->
    Printf.sprintf "DVMRP-PRUNE g%d s%d from%d" group src from
  | Dvmrp_graft { group; src; from } ->
    Printf.sprintf "DVMRP-GRAFT g%d s%d from%d" group src from
  | Mospf_lsa { group; router; joined; seq } ->
    Printf.sprintf "MOSPF-LSA g%d r%d %s #%d" group router
      (if joined then "join" else "leave")
      seq
  | Hpim_sync { group; src; from; seq; interested } ->
    Printf.sprintf "HPIM-SYNC g%d s%d from%d #%d %s" group src from seq
      (if interested then "interest" else "no-interest")
  | Hpim_ack { group; src; from; seq } ->
    Printf.sprintf "HPIM-ACK g%d s%d from%d #%d" group src from seq

(* Wire sizes in 32-bit words: a 2-word common header (type, group)
   plus the message's variable part. Data payloads are modelled as the
   paper's "one multicast packet" — 128 words (512 B); an Encap adds an
   outer unicast header. TREE and BRANCH packets are the genuinely
   variable ones (§III.E): their length follows the encoded tree/path.
   Reliable-transport framing adds one token word around its inner
   message; the sequence number of JOIN/LEAVE/GRAFT is one word too.
   The authority epoch rides in previously-reserved bits of the common
   header (a version field, as PIM carries one), so epoch-fenced frames
   cost no extra words and fault-free byte counts are unchanged. *)
let rec wire_words = function
  | Data _ -> 2 + 128
  | Encap _ -> 4 + 128
  | Scmp_tree { packet; _ } -> 2 + Tree_packet.size packet
  | Scmp_branch { path; _ } -> 2 + List.length path
  | Scmp_join _ | Scmp_leave _ | Scmp_graft _ | Scmp_invalidate _ -> 4
  | Scmp_req_ack _ -> 5
  | Scmp_reliable { inner; _ } -> 1 + wire_words inner
  | Scmp_ack _ -> 3
  | Scmp_prune _ -> 3
  | Scmp_replicate _ -> 4
  | Scmp_heartbeat _ | Scmp_heartbeat_ack _ -> 3
  | Scmp_announce _ -> 3
  | Scmp_resync { members; left; seen; relays; _ } ->
    4 + List.length members + List.length left + (2 * List.length seen)
    + List.length relays
  | Pim_join _ | Pim_prune _ -> 4
  | Cbt_join { path; _ } | Cbt_join_ack { path; _ } -> 3 + List.length path
  | Cbt_quit _ -> 3
  | Dvmrp_prune _ | Dvmrp_graft _ -> 4
  | Mospf_lsa _ -> 5
  | Hpim_sync _ -> 6
  | Hpim_ack _ -> 5

let wire_bytes msg = 4 * wire_words msg

let network engine graph =
  Eventsim.Netsim.create ~sizeof:wire_bytes engine graph ~classify

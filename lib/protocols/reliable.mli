(** Sender-side reliable delivery over a lossy {!Eventsim.Netsim}: the
    one retransmission loop every control protocol here shares.

    The paper assumes control packets arrive (§III); this reproduction
    does not. SCMP's DR requests, SCMP's reliable frames and HPIM-DM's
    interest syncs (PAPERS.md) each keep a {e window} of outstanding
    sends, one entry per key. A window is created once with the
    protocol's resend, settled-check and give-up functions; the entries
    hold only the key, the payload, a send serial and an attempt
    counter.

    {b The retry rule.} An entry sent at attempt 1 arms a foreground
    timer. Attempt [a]'s timer fires [(rto + rtt key payload) × 2^(a−1)]
    after it was armed, the base re-read at every arm. When it fires the
    first matching case applies:

    + the entry was acked, cancelled, aborted or superseded by a newer
      send under its key: stop;
    + [settled key payload] holds (the send's effect became observable
      some other way): drop the entry and stop;
    + [a ≥ max_attempts]: drop the entry, count a give-up and call
      [give_up key payload];
    + otherwise: count a retransmission, [resend key payload] and re-arm
      at attempt [a + 1].

    So a send that is never acked is retransmitted exactly
    [max_attempts − 1] times, and the bound keeps a permanently
    unreachable peer from holding a run-to-quiescence alive forever. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'p t

  val create :
    Eventsim.Engine.t ->
    rto:float ->
    max_attempts:int ->
    rtt:(K.t -> 'p -> float) ->
    resend:(K.t -> 'p -> unit) ->
    settled:(K.t -> 'p -> bool) ->
    give_up:(K.t -> 'p -> unit) ->
    'p t
  (** [rto] is the base timeout, [rtt] the measured round trip added to
      it (0 for one-hop sends); [resend] also performs the first
      transmission.
      @raise Invalid_argument if [rto <= 0] or [max_attempts < 1]. *)

  val send : 'p t -> K.t -> 'p -> unit
  (** Record [payload] under [key] (superseding any entry there),
      transmit it and arm its first timer. *)

  val find : 'p t -> K.t -> 'p option
  (** The outstanding payload under [key]. *)

  val ack : 'p t -> K.t -> unit
  (** Drop the entry under [key], if any: its pending timer stops. *)

  val cancel_if : 'p t -> (K.t -> 'p -> bool) -> unit
  (** Drop every entry satisfying the predicate, silently, oldest send
      first. *)

  val abort_if : 'p t -> (K.t -> 'p -> bool) -> unit
  (** Give up on every entry satisfying the predicate now, oldest send
      first: each counts as a give-up and goes to [give_up]. *)

  val retransmissions : 'p t -> int
  val giveups : 'p t -> int
end

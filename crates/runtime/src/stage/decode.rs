//! The decode stage: the prepared-decoder hot path of one worker.
//!
//! A [`DecodeStage`] owns everything a worker thread needs to turn a wire
//! record into a committed-ready correction without allocating in steady
//! state: one prepared decoder per distinct `(code distance, factory)` pair
//! (lattices of equal distance share layout — [`LatticeSet`] interns them —
//! so prepared sector graphs and scratch arenas are reused across lattices
//! served by the *same* factory), plus per-lattice reusable packet,
//! syndrome and Pauli buffers.  [`DecodeStage::decode`] routes a record to
//! its lattice's prepared state by the header's `lattice_id`, validates and
//! unpacks it, decodes both sectors through the allocation-free
//! [`Decoder::decode_into`] path, and composes the sector corrections into
//! one [`PauliString`] borrowed out as a [`DecodedRound`].
//!
//! The stage is purely computational — it owns no queue and no thread.  The
//! pipeline wiring (batch fill via a [`StealMux`](crate::stage::StealMux),
//! commit via a [`FrameSink`](crate::stage::FrameSink), budget-credit
//! return via [`QosGate::credit_decode`](crate::stage::QosGate::credit_decode))
//! lives in [`crate::stage::graph`].
//!
//! [`Decoder::decode_into`]: nisqplus_decoders::Decoder::decode_into

use crate::lattice_set::{LatticeDecoder, LatticeSet};
use crate::packet::{PacketCodec, PacketError, SyndromePacket};
use nisqplus_decoders::traits::{DecoderFactory, DynDecoder};
use nisqplus_qec::lattice::Sector;
use nisqplus_qec::logical::{classify_both_sectors_into, LogicalState};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;

/// One decoded round, borrowed from the stage's reusable buffers: valid
/// until the next [`DecodeStage::decode`] call.
#[derive(Debug)]
pub struct DecodedRound<'a> {
    /// Id of the lattice the round belongs to.
    pub lattice_id: u32,
    /// The round index within that lattice's stream.
    pub round: u64,
    /// The producer's emission timestamp (nanoseconds since the run epoch).
    pub emitted_ns: u64,
    /// The composed X- and Z-sector correction for the round.
    pub correction: &'a PauliString,
    /// The per-sector residual states of the round, classified in stream
    /// against the error carried by the record — present exactly when the
    /// codec carries an error payload
    /// ([`PacketCodec::with_error_payload`]).
    pub residual: Option<(LogicalState, LogicalState)>,
}

/// One lattice's reusable decode state: the prepared-decoder slot plus the
/// buffers the hot loop writes into.
#[derive(Debug)]
struct LatticeDecodeState {
    /// Index into the stage's deduplicated decoder list.
    decoder_slot: usize,
    packet: SyndromePacket,
    syndrome: Syndrome,
    x_buf: PauliString,
    z_buf: PauliString,
    /// The record's carried error, unpacked here when the codec carries one.
    error_buf: PauliString,
    /// Scratch for the error∘correction composition during in-stream
    /// residual classification.
    residual_buf: PauliString,
}

/// The prepared-decoder decode stage of one worker thread.
pub struct DecodeStage<'a> {
    set: &'a LatticeSet,
    codec: &'a PacketCodec,
    decoders: Vec<DynDecoder>,
    /// Whether each decoder slot has been `prepare`d yet.  Preparation is
    /// lazy — it happens on the slot's first record — so a worker serving an
    /// elastic machine never pays for distances whose lattices stay dormant
    /// or whose records all land on other workers (hot-added lattices
    /// included).
    prepared: Vec<bool>,
    /// The name of the decoder serving each lattice, in lattice-id order.
    lattice_decoders: Vec<String>,
    states: Vec<LatticeDecodeState>,
    decoded: u64,
}

impl std::fmt::Debug for DecodeStage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeStage")
            .field("lattice_decoders", &self.lattice_decoders)
            .field("decoded", &self.decoded)
            .finish_non_exhaustive()
    }
}

impl<'a> DecodeStage<'a> {
    /// Builds the stage for every lattice of `set`: one decoder per
    /// distinct `(code distance, factory)` pair — per-lattice
    /// [`LatticeSpec::decoder`](crate::lattice_set::LatticeSpec::decoder)
    /// overrides beside the machine-wide `factory`.  Decoders are built now
    /// but `prepare`d lazily, each on the first record that routes to its
    /// slot.
    #[must_use]
    pub fn new(set: &'a LatticeSet, codec: &'a PacketCodec, factory: &dyn DecoderFactory) -> Self {
        let mut decoders: Vec<DynDecoder> = Vec::new();
        let mut lattice_decoders: Vec<String> = Vec::with_capacity(set.len());
        // (distance, factory identity, slot); None = the machine-wide factory.
        let mut slot_of: Vec<(usize, Option<usize>, usize)> = Vec::new();
        let mut states: Vec<LatticeDecodeState> = Vec::with_capacity(set.len());
        for (_, spec, lattice) in set.iter() {
            let factory_key = spec.decoder.as_ref().map(LatticeDecoder::key);
            let decoder_slot = match slot_of
                .iter()
                .find(|(d, k, _)| *d == spec.distance && *k == factory_key)
            {
                Some(&(_, _, slot)) => slot,
                None => {
                    let decoder = match &spec.decoder {
                        Some(per_lattice) => per_lattice.build(),
                        None => factory.build(),
                    };
                    decoders.push(decoder);
                    slot_of.push((spec.distance, factory_key, decoders.len() - 1));
                    decoders.len() - 1
                }
            };
            lattice_decoders.push(decoders[decoder_slot].name().to_string());
            states.push(LatticeDecodeState {
                decoder_slot,
                packet: SyndromePacket::new(0, 0, 0, &Syndrome::new(lattice.num_ancillas())),
                syndrome: Syndrome::new(lattice.num_ancillas()),
                x_buf: PauliString::identity(lattice.num_data()),
                z_buf: PauliString::identity(lattice.num_data()),
                error_buf: PauliString::identity(lattice.num_data()),
                residual_buf: PauliString::identity(lattice.num_data()),
            });
        }
        DecodeStage {
            set,
            codec,
            prepared: vec![false; decoders.len()],
            decoders,
            lattice_decoders,
            states,
            decoded: 0,
        }
    }

    /// Decodes one wire record through the lattice's prepared hot path.
    /// The returned [`DecodedRound`] borrows the lattice's composed
    /// correction buffer.
    ///
    /// # Errors
    ///
    /// A record that fails validation — bad magic, wrong format version,
    /// out-of-range lattice id, mismatched length, or a checksum breach
    /// anywhere in the header or payload — returns the typed
    /// [`PacketError`] without touching any decoder state: the worker
    /// quarantines it instead of panicking the pool.
    pub fn decode(&mut self, record: &[u64]) -> Result<DecodedRound<'_>, PacketError> {
        // Full validation (header + checksum trailer) *before* indexing any
        // per-lattice state: a corrupted lattice-id field must not pick a
        // buffer, let alone panic on an out-of-range slot.
        let lattice_id = self.codec.verify(record)? as usize;
        let state = &mut self.states[lattice_id];
        let decoder = &mut self.decoders[state.decoder_slot];
        let lattice = self.set.lattice(lattice_id);
        if !self.prepared[state.decoder_slot] {
            // First record for this slot: prepare now.  Lattices of equal
            // distance are interned, so preparing against whichever lattice
            // arrives first covers every lattice the slot serves.
            decoder.prepare(lattice);
            self.prepared[state.decoder_slot] = true;
        }
        self.codec.try_decode_into(record, &mut state.packet)?;
        state.packet.syndrome.write_to_syndrome(&mut state.syndrome);
        decoder.decode_into(lattice, &state.syndrome, Sector::X, &mut state.x_buf);
        decoder.decode_into(lattice, &state.syndrome, Sector::Z, &mut state.z_buf);
        state.x_buf.compose_with(&state.z_buf);
        // In-stream residual classification: the record carries the seeded
        // error behind its syndrome, so the residual can be judged right
        // here, allocation-free, instead of by an end-of-run replay.
        let residual = if self.codec.carries_errors() {
            self.codec
                .decode_error_into(record, lattice_id as u32, &mut state.error_buf);
            Some(classify_both_sectors_into(
                lattice,
                &state.error_buf,
                &state.x_buf,
                &mut state.residual_buf,
            ))
        } else {
            None
        };
        self.decoded += 1;
        Ok(DecodedRound {
            lattice_id: state.packet.lattice_id,
            round: state.packet.round,
            emitted_ns: state.packet.emitted_ns,
            correction: &state.x_buf,
            residual,
        })
    }

    /// The name of the decoder serving each lattice, in lattice-id order.
    #[must_use]
    pub fn lattice_decoders(&self) -> &[String] {
        &self.lattice_decoders
    }

    /// Rounds decoded by this stage so far.
    #[must_use]
    pub fn decoded(&self) -> u64 {
        self.decoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice_set::LatticeSpec;
    use crate::source::{NoiseSpec, SyndromeSource};
    use nisqplus_decoders::GreedyMatchingDecoder;

    fn set_of(distances: &[usize]) -> LatticeSet {
        let specs: Vec<LatticeSpec> = distances
            .iter()
            .map(|&d| {
                let mut spec = LatticeSpec::new(d);
                spec.noise = NoiseSpec::PureDephasing { p: 0.05 };
                spec.rounds = 8;
                spec
            })
            .collect();
        LatticeSet::new(specs).unwrap()
    }

    fn factory() -> impl DecoderFactory {
        || Box::new(GreedyMatchingDecoder::new()) as DynDecoder
    }

    #[test]
    fn equal_distance_lattices_share_one_prepared_decoder() {
        let set = set_of(&[3, 5, 3]);
        let codec = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let stage = DecodeStage::new(&set, &codec, &factory());
        // Two distinct distances → two prepared decoders for three lattices.
        assert_eq!(stage.decoders.len(), 2);
        assert_eq!(stage.states[0].decoder_slot, stage.states[2].decoder_slot);
        assert_ne!(stage.states[0].decoder_slot, stage.states[1].decoder_slot);
        assert_eq!(stage.lattice_decoders().len(), 3);
    }

    #[test]
    fn decoders_prepare_lazily_on_their_slots_first_record() {
        let set = set_of(&[3, 5]);
        let codec = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let mut stage = DecodeStage::new(&set, &codec, &factory());
        assert!(
            stage.prepared.iter().all(|p| !p),
            "construction prepares nothing"
        );
        // Decode one record for lattice 1 only: its slot prepares, the
        // untouched d=3 slot stays cold — what makes hot-added distances
        // free for workers that never see their records.
        let spec = set.spec(1);
        let mut source =
            SyndromeSource::new(set.lattice(1).clone(), spec.noise, spec.seed).unwrap();
        let syndrome = source.next_syndrome();
        let packet = SyndromePacket::new(1, 0, 3, &syndrome);
        let mut record = vec![0u64; codec.words_per_packet()];
        codec.encode(&packet, &mut record);
        stage.decode(&record).expect("clean record decodes");
        assert!(stage.prepared[stage.states[1].decoder_slot]);
        assert!(!stage.prepared[stage.states[0].decoder_slot]);
    }

    #[test]
    fn decode_routes_by_header_and_matches_a_direct_decode() {
        let set = set_of(&[3, 5]);
        let codec = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let mut stage = DecodeStage::new(&set, &codec, &factory());
        let mut record = vec![0u64; codec.words_per_packet()];
        for lattice_id in [1u32, 0, 1] {
            let spec = set.spec(lattice_id as usize);
            let mut source = SyndromeSource::new(
                set.lattice(lattice_id as usize).clone(),
                spec.noise,
                spec.seed,
            )
            .unwrap();
            let syndrome = source.next_syndrome();
            let packet = SyndromePacket::new(lattice_id, 0, 17, &syndrome);
            codec.encode(&packet, &mut record);
            let decoded = stage.decode(&record).expect("clean record decodes");
            assert_eq!(decoded.lattice_id, lattice_id);
            assert_eq!(decoded.round, 0);
            assert_eq!(decoded.emitted_ns, 17);
            // The borrowed correction is the composed X∘Z correction of a
            // freshly prepared decoder fed the same syndrome.
            let lattice = set.lattice(lattice_id as usize);
            let mut reference = factory().build();
            reference.prepare(lattice);
            let mut x = PauliString::identity(lattice.num_data());
            let mut z = PauliString::identity(lattice.num_data());
            reference.decode_into(lattice, &syndrome, Sector::X, &mut x);
            reference.decode_into(lattice, &syndrome, Sector::Z, &mut z);
            x.compose_with(&z);
            assert_eq!(*decoded.correction, x);
        }
        assert_eq!(stage.decoded(), 3);
    }

    #[test]
    fn error_carrying_records_are_classified_in_stream() {
        use nisqplus_qec::logical::classify_both_sectors;
        let set = set_of(&[3, 5]);
        let codec = PacketCodec::with_error_payload(&set.ancilla_bits(), &set.data_bits());
        let mut stage = DecodeStage::new(&set, &codec, &factory());
        let mut record = vec![0u64; codec.words_per_packet()];
        for lattice_id in [0u32, 1, 0, 1] {
            let spec = set.spec(lattice_id as usize);
            let lattice = set.lattice(lattice_id as usize);
            let mut source = SyndromeSource::new(lattice.clone(), spec.noise, spec.seed).unwrap();
            let (error, syndrome) = source.next_error_and_syndrome();
            let packet = SyndromePacket::new(lattice_id, 0, 5, &syndrome);
            codec.encode_with_error(&packet, &error, &mut record);
            let decoded = stage.decode(&record).expect("clean record decodes");
            let expected = classify_both_sectors(lattice, &error, decoded.correction);
            assert_eq!(decoded.residual, Some(expected));
        }
        // An errorless codec leaves the classification off.
        let plain = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let mut plain_stage = DecodeStage::new(&set, &plain, &factory());
        let mut plain_record = vec![0u64; plain.words_per_packet()];
        let packet = SyndromePacket::new(0, 0, 5, &Syndrome::new(set.lattice(0).num_ancillas()));
        plain.encode(&packet, &mut plain_record);
        assert_eq!(plain_stage.decode(&plain_record).unwrap().residual, None);
    }

    #[test]
    fn corrupted_record_is_rejected_without_touching_state() {
        let set = set_of(&[3, 5]);
        let codec = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let mut stage = DecodeStage::new(&set, &codec, &factory());
        let spec = set.spec(0);
        let mut source =
            SyndromeSource::new(set.lattice(0).clone(), spec.noise, spec.seed).unwrap();
        let syndrome = source.next_syndrome();
        let packet = SyndromePacket::new(0, 0, 17, &syndrome);
        let mut record = vec![0u64; codec.words_per_packet()];
        codec.encode(&packet, &mut record);
        // A single bit flip anywhere — here in the lattice-id header word —
        // must surface as a typed error, not a panic or a misroute.
        record[0] ^= 1 << 7;
        assert!(stage.decode(&record).is_err());
        assert_eq!(stage.decoded(), 0, "a quarantined record decodes nothing");
        // The stage still decodes clean records afterwards.
        record[0] ^= 1 << 7;
        assert!(stage.decode(&record).is_ok());
        assert_eq!(stage.decoded(), 1);
    }
}
